//! JSON request/response bodies of the serving API, shared by the server,
//! the client and the load generator.

use crate::ServingModel;
use serde::{Deserialize, Serialize};
use sls_linalg::Matrix;
use std::fmt::Write as _;

/// Body of `POST /models/{name}/features` and `POST /models/{name}/assign`:
/// a batch of raw feature rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RowsRequest {
    /// Raw feature rows, one inner vector per instance. All rows must have
    /// the model's visible width.
    pub rows: Vec<Vec<f64>>,
}

impl RowsRequest {
    /// Converts the rows into a [`Matrix`] so the whole batch runs through
    /// one matrix multiply.
    ///
    /// # Errors
    ///
    /// Returns a message if the batch is empty or ragged.
    pub fn to_matrix(&self) -> std::result::Result<Matrix, String> {
        if self.rows.is_empty() {
            return Err("`rows` must contain at least one row".to_string());
        }
        Matrix::from_rows(&self.rows).map_err(|e| e.to_string())
    }
}

/// Body of a successful `POST /models/{name}/features` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeaturesResponse {
    /// The model that served the request.
    pub model: String,
    /// Registry generation that served the request. A request resolves its
    /// generation once; a concurrent hot swap never mixes generations within
    /// one response.
    pub generation: u64,
    /// Hidden-feature rows, aligned with the request rows.
    pub features: Vec<Vec<f64>>,
}

/// Body of a successful `POST /models/{name}/assign` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssignResponse {
    /// The model that served the request.
    pub model: String,
    /// Registry generation that served the request.
    pub generation: u64,
    /// Cluster label per request row.
    pub assignments: Vec<usize>,
}

/// Body of `GET /healthz`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Always `"ok"` when the server answers at all.
    pub status: String,
    /// Number of loaded models.
    pub models: usize,
}

/// One entry of `GET /models`: everything a client needs to shape requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelInfo {
    /// Registry name (the `{name}` path segment).
    pub name: String,
    /// Model kind, as produced by `ModelKind::as_str`.
    pub kind: String,
    /// Artifact schema version.
    pub schema_version: u32,
    /// Expected raw-row width.
    pub n_visible: usize,
    /// Produced feature width.
    pub n_hidden: usize,
    /// Cluster count of the fitted head (`null` if the artifact has none,
    /// in which case `/assign` is unavailable for the model).
    pub n_clusters: Option<usize>,
    /// `true` when the model serves through the f32-quantized compact
    /// representation.
    pub compact: bool,
    /// Bytes held by the model parameters in the loaded representation.
    pub param_bytes: usize,
    /// Training timestamp recorded at export time (`null` for artifacts
    /// exported before provenance existed).
    pub trained_at: Option<String>,
    /// Provenance string recorded at export time (`null` when absent).
    pub source: Option<String>,
}

impl ModelInfo {
    /// Builds the info entry for a registered model.
    pub fn describe(name: &str, model: &ServingModel) -> Self {
        Self {
            name: name.to_string(),
            kind: model.model_kind().to_string(),
            schema_version: model.schema_version(),
            n_visible: model.n_visible(),
            n_hidden: model.n_hidden(),
            n_clusters: model.n_clusters(),
            compact: model.is_compact(),
            param_bytes: model.param_bytes(),
            trained_at: model.trained_at().map(str::to_string),
            source: model.source().map(str::to_string),
        }
    }
}

/// Body of `GET /models`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelsResponse {
    /// Registry generation these entries were read from.
    pub generation: u64,
    /// Loaded models in name order.
    pub models: Vec<ModelInfo>,
}

/// Stable machine-readable error codes carried in every
/// [`ErrorResponse::code`]. Clients branch on these; the `error` string is
/// for humans and may change wording between releases, the codes may not.
pub mod code {
    /// No route matches the request path.
    pub const NOT_FOUND: &str = "not_found";
    /// The path starts with a `/v{n}` prefix this server does not speak.
    pub const UNSUPPORTED_API_VERSION: &str = "unsupported_api_version";
    /// The path exists but not under this method.
    pub const METHOD_NOT_ALLOWED: &str = "method_not_allowed";
    /// The `{name}` path segment names no loaded model.
    pub const MODEL_NOT_FOUND: &str = "model_not_found";
    /// The request body is not valid JSON of the expected shape.
    pub const INVALID_BODY: &str = "invalid_body";
    /// The rows are empty, ragged, or not the model's visible width.
    pub const BAD_ROW_WIDTH: &str = "bad_row_width";
    /// `/assign` on a model whose artifact carries no cluster head.
    pub const NO_CLUSTER_HEAD: &str = "no_cluster_head";
    /// The model rejected a well-shaped batch at compute time.
    pub const INFERENCE_FAILED: &str = "inference_failed";
    /// The declared body exceeds the configured limit (413).
    pub const BODY_TOO_LARGE: &str = "body_too_large";
    /// The request could not be framed; the connection closes (400).
    pub const MALFORMED_REQUEST: &str = "malformed_request";
    /// The server is at its connection cap and shed this one (503).
    pub const OVER_CAPACITY: &str = "over_capacity";
    /// This node is draining: health checks fail while open connections
    /// finish (503).
    pub const DRAINING: &str = "draining";
    /// Drain was requested without drain support (in-process routing
    /// through `route_live`).
    pub const DRAIN_UNAVAILABLE: &str = "drain_unavailable";
    /// The router found no live replica to forward to (503).
    pub const REPLICA_UNAVAILABLE: &str = "replica_unavailable";
    /// A drain request named an address outside the replica set (404).
    pub const REPLICA_NOT_FOUND: &str = "replica_not_found";
    /// A drain request targeted the only replica still taking traffic (409).
    pub const LAST_REPLICA: &str = "last_replica";
    /// The server failed internally (500).
    pub const INTERNAL: &str = "internal";
}

/// Body of every non-2xx response.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ErrorResponse {
    /// Human-readable explanation of the failure.
    pub error: String,
    /// Stable machine-readable failure class, one of the [`code`] constants.
    /// Defaults to empty when decoding bodies from servers predating the
    /// field.
    pub code: String,
}

// Hand-written so `code` is optional on decode: bodies from servers
// predating the field still parse (the vendored serde facade has no
// `#[serde(default)]`).
impl Deserialize for ErrorResponse {
    fn from_value(value: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let entries = value
            .as_object()
            .ok_or_else(|| serde::DeError::mismatch("object", value))?;
        let error = String::from_value(serde::field(entries, "error")?)?;
        let code = entries
            .iter()
            .find(|(key, _)| key == "code")
            .map(|(_, v)| String::from_value(v))
            .transpose()?
            .unwrap_or_default();
        Ok(Self { error, code })
    }
}

/// Body of `GET /statz`: the cross-request micro-batching configuration and
/// lifetime counters of the serving process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchStatsResponse {
    /// Configured collection window in microseconds (`0` = coalescing off).
    pub window_us: u64,
    /// Row cap per fused batch.
    pub max_batch_rows: usize,
    /// Fused batches launched through the coalescing window.
    pub batches: u64,
    /// Requests that went through those batches.
    pub batched_requests: u64,
    /// Total rows fused through those batches.
    pub batched_rows: u64,
    /// Most requests ever fused into one batch.
    pub largest_batch: u64,
    /// Most rows ever fused into one batch.
    pub largest_batch_rows: u64,
    /// Current registry generation (starts at 1, bumps on every swap).
    pub generation: u64,
    /// Successful hot swaps since the process started.
    pub registry_swaps: u64,
    /// Reload attempts that were rejected without swapping.
    pub failed_reloads: u64,
}

impl BatchStatsResponse {
    /// Builds the response for an optional batcher (`None` reports the
    /// all-zero disabled shape).
    pub fn describe(batcher: Option<&crate::batch::Batcher>) -> Self {
        let Some(batcher) = batcher else {
            return Self {
                window_us: 0,
                max_batch_rows: 0,
                batches: 0,
                batched_requests: 0,
                batched_rows: 0,
                largest_batch: 0,
                largest_batch_rows: 0,
                generation: 1,
                registry_swaps: 0,
                failed_reloads: 0,
            };
        };
        let config = batcher.config();
        let stats = batcher.stats();
        Self {
            window_us: u64::try_from(config.window.as_micros()).unwrap_or(u64::MAX),
            max_batch_rows: config.max_rows,
            batches: stats.batches,
            batched_requests: stats.batched_requests,
            batched_rows: stats.batched_rows,
            largest_batch: stats.largest_batch,
            largest_batch_rows: stats.largest_batch_rows,
            generation: 1,
            registry_swaps: 0,
            failed_reloads: 0,
        }
    }

    /// Fills in the live-registry counters (the plain `describe` defaults to
    /// generation 1 with zero swaps, matching a server without hot reload).
    #[must_use]
    pub fn with_registry(mut self, generation: u64, swaps: u64, failed_reloads: u64) -> Self {
        self.generation = generation;
        self.registry_swaps = swaps;
        self.failed_reloads = failed_reloads;
        self
    }
}

/// Per-artifact outcome inside a `POST /admin/reload` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelLoadResult {
    /// Model name derived from the artifact file stem.
    pub name: String,
    /// `true` when the artifact parsed and validated.
    pub loaded: bool,
    /// Failure detail when `loaded` is `false` (`null` otherwise).
    pub message: Option<String>,
}

/// Body of `POST /admin/reload` (both the 200 swapped and 409 rejected
/// shapes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReloadResponse {
    /// `"swapped"` on success, `"rejected"` when the old generation was kept.
    pub status: String,
    /// `true` iff a new generation is now serving.
    pub swapped: bool,
    /// The generation serving after this request (new on success, unchanged
    /// on rejection).
    pub generation: u64,
    /// Per-artifact load results for the scanned directory.
    pub models: Vec<ModelLoadResult>,
    /// Overall failure explanation when rejected (`null` on success).
    pub error: Option<String>,
}

/// Body of `POST /admin/drain` on a serving node: the node keeps answering
/// requests on open connections but fails `/healthz` with 503 so routers
/// and load balancers stop sending it new traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrainResponse {
    /// Always `"draining"` once the flag is set (drain is idempotent).
    pub status: String,
    /// `true` — the node now fails health checks.
    pub draining: bool,
}

/// Body of `POST /admin/drain` on the **router**: names the replica to
/// retire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrainRequest {
    /// Replica address exactly as configured (`host:port`).
    pub replica: String,
}

/// Body of a successful router `POST /admin/drain`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterDrainResponse {
    /// `"drained"` once in-flight forwards hit zero, `"draining"` if some
    /// were still running when the bounded wait expired.
    pub status: String,
    /// The replica that was drained.
    pub replica: String,
    /// Forwards still in flight on the replica when the response was built.
    pub in_flight: usize,
    /// `true` when the replica itself acknowledged the forwarded drain (its
    /// own `/healthz` now fails); `false` when it was unreachable.
    pub node_drained: bool,
}

/// Body of router `GET /healthz`: replica availability in one glance.
/// Decodes as a [`HealthResponse`] too (extra fields are ignored), so
/// clients need not care whether they talk to a node or a router.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterHealthResponse {
    /// `"ok"` while at least one replica is routable.
    pub status: String,
    /// Models currently advertised (consistent across their owners).
    pub models: usize,
    /// Configured replica count, drained included.
    pub replicas: usize,
    /// Replicas that are healthy and not drained.
    pub available: usize,
}

/// One replica's row inside router `GET /admin/statz`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaStatz {
    /// Replica address.
    pub addr: String,
    /// Last health-check / forward outcome.
    pub healthy: bool,
    /// `true` once drained; a drained replica owns nothing.
    pub drained: bool,
    /// Registry generation the replica reported, `null` when drained or
    /// unreachable.
    pub generation: Option<u64>,
    /// Forwards currently running against this replica.
    pub in_flight: usize,
    /// Requests forwarded to this replica over the router's lifetime.
    pub forwards: u64,
    /// Transport failures observed against this replica.
    pub failures: u64,
}

/// Body of router `GET /admin/statz` (and its `/statz` alias).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterStatzResponse {
    /// Replicas each model name is hashed onto.
    pub replication: usize,
    /// Generation shared by every reachable non-drained replica, `null`
    /// while replicas disagree or none are reachable.
    pub consistent_generation: Option<u64>,
    /// Requests forwarded through the router.
    pub forwards: u64,
    /// Requests that succeeded only after retrying on another owner.
    pub retried_requests: u64,
    /// Requests answered 503 because no owner was reachable.
    pub unrouted: u64,
    /// Per-replica detail, in configuration order.
    pub replicas: Vec<ReplicaStatz>,
}

/// One replica's outcome inside a router fan-out reload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaReloadResult {
    /// Replica address.
    pub addr: String,
    /// `false` when the replica could not be reached at all.
    pub reachable: bool,
    /// The replica's own [`ReloadResponse`] when reachable.
    pub response: Option<ReloadResponse>,
    /// Transport failure detail when unreachable.
    pub error: Option<String>,
}

/// Body of router `POST /admin/reload`: the fan-out result. `200` only when
/// **every** non-drained replica swapped onto the same generation; anything
/// else is `409` with per-replica detail, and models whose owners disagree
/// stop being advertised until generations re-align.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterReloadResponse {
    /// `"swapped"`, `"rejected"` (every replica kept its old generation,
    /// consistently), or `"inconsistent"` (outcomes diverged).
    pub status: String,
    /// `true` iff every replica swapped onto one shared generation.
    pub swapped: bool,
    /// The common generation when replicas agree, `null` otherwise.
    pub generation: Option<u64>,
    /// Per-replica outcomes, in configuration order (drained replicas are
    /// skipped — they are no longer part of the serving set).
    pub replicas: Vec<ReplicaReloadResult>,
    /// Failure summary when not swapped (`null` on success).
    pub error: Option<String>,
}

/// Converts a matrix to the row-of-rows JSON shape.
pub fn matrix_to_rows(matrix: &Matrix) -> Vec<Vec<f64>> {
    matrix.row_iter().map(<[f64]>::to_vec).collect()
}

/// Decodes a [`RowsRequest`] body straight into one row-major [`Matrix`].
///
/// A single non-recursive pass reads the canonical `{"rows":[[n,…],…]}`
/// shape (JSON whitespace allowed between tokens) and pushes every number
/// into one flat buffer: no `serde::Value` tree and no `Vec<Vec<f64>>`.
/// Numbers decode exactly as the vendored `serde_json` decodes them.
///
/// Any other body — another, duplicate or escaped key, a non-number
/// element, empty or ragged rows, a token that does not parse, trailing
/// bytes — goes through `serde_json::from_str::<RowsRequest>` and
/// [`RowsRequest::to_matrix`] instead, so every accepted matrix and every
/// rejection is the general path's. A rejected body thus costs at most one
/// extra linear scan.
///
/// # Errors
///
/// Returns the error [`code`] and message the server answers `400` with:
/// [`code::INVALID_BODY`] for malformed JSON, [`code::BAD_ROW_WIDTH`] for
/// empty or ragged rows.
pub fn decode_rows(body: &str) -> std::result::Result<Matrix, (&'static str, String)> {
    if let Some(matrix) = RowsScanner::new(body).scan() {
        return Ok(matrix);
    }
    let rows: RowsRequest = serde_json::from_str(body)
        .map_err(|e| (code::INVALID_BODY, format!("invalid JSON body: {e}")))?;
    rows.to_matrix()
        .map_err(|message| (code::BAD_ROW_WIDTH, message))
}

/// The flat single-pass reader behind [`decode_rows`]. Every method returns
/// `None` (or `false`) on the first byte outside the canonical shape.
struct RowsScanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> RowsScanner<'a> {
    fn new(text: &'a str) -> Self {
        Self { text, pos: 0 }
    }

    fn scan(mut self) -> Option<Matrix> {
        if !(self.eat(b'{') && self.eat(b'"')) {
            return None;
        }
        // The key's bytes follow the quote directly: whitespace there would
        // be part of the key.
        if !self.text.as_bytes()[self.pos..].starts_with(b"rows\"") {
            return None;
        }
        self.pos += b"rows\"".len();
        if !(self.eat(b':') && self.eat(b'[')) {
            return None;
        }
        let mut data = Vec::new();
        let (mut rows, mut cols) = (0, 0);
        loop {
            let row_start = self.pos;
            if !self.eat(b'[') {
                return None;
            }
            data.push(self.number()?);
            while self.eat(b',') {
                data.push(self.number()?);
            }
            if !self.eat(b']') {
                return None;
            }
            rows += 1;
            if rows == 1 {
                // Size the buffer once from the first row's footprint. A
                // row takes at least two bytes per number, so this never
                // asks for more than one value per two remaining bytes.
                cols = data.len();
                let per_row = self.pos - row_start;
                data.reserve((self.text.len() - self.pos) / per_row * cols);
            } else if data.len() != rows * cols {
                return None;
            }
            if !self.eat(b',') {
                break;
            }
        }
        if !(self.eat(b']') && self.eat(b'}')) {
            return None;
        }
        self.skip_whitespace();
        if self.pos != self.text.len() {
            return None;
        }
        Matrix::from_vec(rows, cols, data).ok()
    }

    fn skip_whitespace(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.text.as_bytes().get(self.pos) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_whitespace();
        if self.text.as_bytes().get(self.pos) == Some(&byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// One number token, cut and parsed as the vendored `serde_json` does:
    /// an optional `-`, then bytes from `[0-9.eE+-]`. A token with any of
    /// `.eE+-` after the sign parses as `f64`; any other parses as `i64`
    /// (so `-0` is `+0.0`), or as `f64` past the `i64` range.
    fn number(&mut self) -> Option<f64> {
        self.skip_whitespace();
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut end = start;
        match bytes.get(end) {
            Some(b'-') => end += 1,
            Some(b'0'..=b'9') => {}
            _ => return None,
        }
        let mut is_float = false;
        loop {
            end += digit_run(&bytes[end..]);
            match bytes.get(end) {
                Some(b'.' | b'e' | b'E' | b'+' | b'-') => {
                    is_float = true;
                    end += 1;
                }
                _ => break,
            }
        }
        self.pos = end;
        // Both ends sit next to ASCII bytes, so the slice is on char
        // boundaries.
        let token = &self.text[start..end];
        if !is_float {
            if let Ok(int) = token.parse::<i64>() {
                return Some(int as f64);
            }
        }
        token.parse::<f64>().ok()
    }
}

/// Length of the run of ASCII digits `bytes` starts with, read eight bytes
/// at a time.
fn digit_run(bytes: &[u8]) -> usize {
    let mut n = 0;
    while let Some(chunk) = bytes.get(n..n + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        // The high bit of a byte ends up set iff it is not in b'0'..=b'9'.
        // Carries and borrows only run towards later bytes, so the first
        // flagged byte is exact.
        let non_digit = (word.wrapping_add(0x4646_4646_4646_4646)
            | word.wrapping_sub(0x3030_3030_3030_3030))
            & 0x8080_8080_8080_8080;
        if non_digit != 0 {
            return n + non_digit.trailing_zeros() as usize / 8;
        }
        n += 8;
    }
    n + bytes[n..].iter().take_while(|b| b.is_ascii_digit()).count()
}

/// Encodes a `/features` response straight from the feature matrix, one
/// row per request row. The bytes equal `serde_json::to_string` of the
/// [`FeaturesResponse`] holding the same rows.
pub fn encode_features(model: &str, generation: u64, features: &Matrix) -> String {
    let mut out = String::with_capacity(64 + model.len() + 24 * features.len());
    open_response(&mut out, model, generation, "features");
    for i in 0..features.rows() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, &x) in features.row(i).iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_f64(&mut out, x);
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// Encodes an `/assign` response; the bytes equal `serde_json::to_string`
/// of the [`AssignResponse`] holding the same labels.
pub fn encode_assign(model: &str, generation: u64, assignments: &[usize]) -> String {
    let mut out = String::with_capacity(64 + model.len() + 4 * assignments.len());
    open_response(&mut out, model, generation, "assignments");
    for (i, &label) in assignments.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Integers serialize through `i64`, as the serde facade does.
        let _ = write!(out, "{}", label as i64);
    }
    out.push_str("]}");
    out
}

/// Writes `{"model":…,"generation":…,"<key>":[`, the shared head of both
/// inference responses, in their field order.
fn open_response(out: &mut String, model: &str, generation: u64, key: &str) {
    out.push_str("{\"model\":");
    // The name goes through the vendored string escaper itself.
    out.push_str(&serde_json::to_string(model).unwrap_or_default());
    let _ = write!(out, ",\"generation\":{},\"{key}\":[", generation as i64);
}

/// Appends one float as the vendored `serde_json` writes it: `f64`
/// `Display` (the shortest text that round-trips), `.0` appended when that
/// text reads as an integer, and `null` for a non-finite value.
fn push_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{x}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sls_rbm_core::{ModelKind, PipelineArtifact, RbmParams};

    #[test]
    fn rows_request_validates_shape() {
        let ok = RowsRequest {
            rows: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
        };
        assert_eq!(ok.to_matrix().unwrap().shape(), (2, 2));
        let empty = RowsRequest { rows: vec![] };
        assert!(empty.to_matrix().is_err());
        let ragged = RowsRequest {
            rows: vec![vec![1.0], vec![1.0, 2.0]],
        };
        assert!(ragged.to_matrix().is_err());
    }

    #[test]
    fn rows_request_json_round_trip() {
        let req = RowsRequest {
            rows: vec![vec![0.5, -1.25]],
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: RowsRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn model_info_describes_artifact() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let artifact =
            PipelineArtifact::from_params(RbmParams::init(6, 3, &mut rng), ModelKind::SlsGrbm)
                .with_provenance(
                    Some("2026-08-01T00:00:00Z".into()),
                    Some("unit test".into()),
                );
        let full = ServingModel::from_artifact(artifact.clone(), false);
        let info = ModelInfo::describe("demo", &full);
        assert_eq!(info.name, "demo");
        assert_eq!(info.kind, "sls-grbm");
        assert_eq!(info.n_visible, 6);
        assert_eq!(info.n_hidden, 3);
        assert_eq!(info.n_clusters, None);
        assert!(!info.compact);
        assert_eq!(info.param_bytes, (6 * 3 + 6 + 3) * 8);
        assert_eq!(info.trained_at.as_deref(), Some("2026-08-01T00:00:00Z"));
        assert_eq!(info.source.as_deref(), Some("unit test"));
        let compact = ModelInfo::describe("demo", &ServingModel::from_artifact(artifact, true));
        assert!(compact.compact);
        assert_eq!(compact.param_bytes, (6 * 3 + 3) * 4);
        let json = serde_json::to_string(&compact).unwrap();
        let back: ModelInfo = serde_json::from_str(&json).unwrap();
        assert_eq!(back, compact);
    }

    #[test]
    fn reload_response_round_trips() {
        let resp = ReloadResponse {
            status: "rejected".into(),
            swapped: false,
            generation: 3,
            models: vec![
                ModelLoadResult {
                    name: "good".into(),
                    loaded: true,
                    message: None,
                },
                ModelLoadResult {
                    name: "bad".into(),
                    loaded: false,
                    message: Some("serialisation error: bad token".into()),
                },
            ],
            error: Some("1 artifact failed to load".into()),
        };
        let json = serde_json::to_string(&resp).unwrap();
        let back: ReloadResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn batch_stats_describe_none_is_all_zero() {
        let stats = BatchStatsResponse::describe(None);
        assert_eq!(stats.window_us, 0);
        assert_eq!(stats.max_batch_rows, 0);
        assert_eq!(stats.batches, 0);
        let json = serde_json::to_string(&stats).unwrap();
        let back: BatchStatsResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn batch_stats_describe_echoes_config() {
        let batcher = crate::batch::Batcher::new(crate::batch::BatchConfig {
            window: std::time::Duration::from_micros(300),
            max_rows: 128,
        });
        let stats = BatchStatsResponse::describe(Some(&batcher));
        assert_eq!(stats.window_us, 300);
        assert_eq!(stats.max_batch_rows, 128);
        assert_eq!(stats.batched_requests, 0);
        assert_eq!(stats.generation, 1);
        let live = stats.with_registry(4, 3, 1);
        assert_eq!(live.generation, 4);
        assert_eq!(live.registry_swaps, 3);
        assert_eq!(live.failed_reloads, 1);
    }

    #[test]
    fn error_response_decodes_with_and_without_code() {
        let modern: ErrorResponse =
            serde_json::from_str("{\"error\":\"no model\",\"code\":\"model_not_found\"}").unwrap();
        assert_eq!(modern.code, code::MODEL_NOT_FOUND);
        // Bodies from servers predating the `code` field still decode.
        let legacy: ErrorResponse = serde_json::from_str("{\"error\":\"no model\"}").unwrap();
        assert_eq!(legacy.code, "");
        assert_eq!(legacy.error, "no model");
    }

    #[test]
    fn router_bodies_round_trip() {
        let statz = RouterStatzResponse {
            replication: 2,
            consistent_generation: Some(3),
            forwards: 10,
            retried_requests: 1,
            unrouted: 0,
            replicas: vec![ReplicaStatz {
                addr: "127.0.0.1:7891".into(),
                healthy: true,
                drained: false,
                generation: Some(3),
                in_flight: 0,
                forwards: 10,
                failures: 0,
            }],
        };
        let back: RouterStatzResponse =
            serde_json::from_str(&serde_json::to_string(&statz).unwrap()).unwrap();
        assert_eq!(back, statz);

        let reload = RouterReloadResponse {
            status: "inconsistent".into(),
            swapped: false,
            generation: None,
            replicas: vec![ReplicaReloadResult {
                addr: "127.0.0.1:7891".into(),
                reachable: false,
                response: None,
                error: Some("connection refused".into()),
            }],
            error: Some("1 replica unreachable".into()),
        };
        let back: RouterReloadResponse =
            serde_json::from_str(&serde_json::to_string(&reload).unwrap()).unwrap();
        assert_eq!(back, reload);
    }

    #[test]
    fn router_health_decodes_as_plain_health() {
        // A client pointed at the router through the plain typed helper must
        // keep working: serde ignores the extra replica fields.
        let body = serde_json::to_string(&RouterHealthResponse {
            status: "ok".into(),
            models: 2,
            replicas: 3,
            available: 2,
        })
        .unwrap();
        let plain: HealthResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(plain.status, "ok");
        assert_eq!(plain.models, 2);
    }

    /// The general path [`decode_rows`] falls back to.
    fn general(body: &str) -> std::result::Result<Matrix, (&'static str, String)> {
        let rows: RowsRequest = serde_json::from_str(body)
            .map_err(|e| (code::INVALID_BODY, format!("invalid JSON body: {e}")))?;
        rows.to_matrix()
            .map_err(|message| (code::BAD_ROW_WIDTH, message))
    }

    fn bits(matrix: &Matrix) -> (usize, usize, Vec<u64>) {
        let (rows, cols) = matrix.shape();
        (
            rows,
            cols,
            matrix.as_slice().iter().map(|x| x.to_bits()).collect(),
        )
    }

    #[test]
    fn scanner_reads_canonical_bodies_bit_for_bit() {
        for body in [
            "{\"rows\":[[0.5,-1.25]]}",
            " {\n\t\"rows\" :\r[ [ 1 , 2.5e-3 ] ,[-0,7E+2] ] }\n ",
            "{\"rows\":[[1e400,-1e400,1e-400,007,-9223372036854775809]]}",
            "{\"rows\":[[0.30000000000000004,9007199254740993,123456789012345678901234]]}",
            "{\"rows\":[[-.5,5.,1e5,-0.0]]}",
        ] {
            let fast = RowsScanner::new(body).scan().expect(body);
            let slow = general(body).expect(body);
            assert_eq!(bits(&fast), bits(&slow), "{body}");
        }
        // `-0` is an integer token, so it decodes to +0.0 like the general
        // path; `-0.0` is a float token and keeps its sign.
        let m = RowsScanner::new("{\"rows\":[[-0,-0.0]]}").scan().unwrap();
        assert_eq!(m.as_slice()[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(m.as_slice()[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn scanner_defers_every_other_shape_to_the_general_path() {
        for body in [
            "",
            "{}",
            "{\"rows\":[]}",
            "{\"rows\":[[]]}",
            "{\"rows\":[[1],[1,2]]}",
            "{\"rows\":[[1,2],[1]]}",
            "{\"rows\":[[1,2],[3,4,5],[6]]}",
            "{\"rows\":[[1,]]}",
            "{\"rows\":[[1]],}",
            "{\"rows\":[[1]]}x",
            "{\"rows\":[[1]]",
            "{\"rows\":[[+1]]}",
            "{\"rows\":[[-]]}",
            "{\"rows\":[[1-2]]}",
            "{\"rows\":[[null]]}",
            "{\"rows\":[[\"1\"]]}",
            "{\"rows\":[[[1]]]}",
            "{\" rows\":[[1]]}",
            "{\"row\\u0073\":[[1]]}",
            "{\"rows\":[[1]],\"rows\":[[2]]}",
            "{\"id\":1,\"rows\":[[1]]}",
            "[[1]]",
        ] {
            assert!(RowsScanner::new(body).scan().is_none(), "{body:?}");
            let decoded = decode_rows(body).map(|m| bits(&m));
            assert_eq!(decoded, general(body).map(|m| bits(&m)), "{body:?}");
        }
    }

    #[test]
    fn digit_run_stops_at_the_first_non_digit_byte() {
        // Every byte value at every offset of the eight-byte word and past
        // it, followed by bytes that carry (0xff) or borrow (0x00) into
        // their neighbours.
        for byte in 0..=u8::MAX {
            for digits in 0..20 {
                for tail in [[b'x', b'9', b'9'], [0xff, b'1', 0xff], [0x00, 0x00, b'3']] {
                    let mut bytes = vec![b'7'; digits];
                    bytes.push(byte);
                    bytes.extend_from_slice(&tail);
                    let expected = digits + usize::from(byte.is_ascii_digit());
                    assert_eq!(digit_run(&bytes), expected, "{bytes:?}");
                }
            }
        }
        assert_eq!(digit_run(b""), 0);
        assert_eq!(digit_run(b"0123456789012345"), 16);
    }

    #[test]
    fn encoders_match_the_serde_writer_byte_for_byte() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -2.0,
            0.1 + 0.2,
            1e21,
            1e-7,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            123_456_789.0,
        ];
        let features = Matrix::from_vec(2, 7, values.to_vec()).unwrap();
        for model in ["demo", "quo\"te\\back\nline\u{1}\u{e9}", ""] {
            for generation in [1, 42, u64::MAX] {
                let expected = serde_json::to_string(&FeaturesResponse {
                    model: model.to_string(),
                    generation,
                    features: (0..features.rows())
                        .map(|i| features.row(i).to_vec())
                        .collect(),
                })
                .unwrap();
                assert_eq!(encode_features(model, generation, &features), expected);
                let assignments = vec![0, 3, usize::MAX, 7];
                let expected = serde_json::to_string(&AssignResponse {
                    model: model.to_string(),
                    generation,
                    assignments: assignments.clone(),
                })
                .unwrap();
                assert_eq!(encode_assign(model, generation, &assignments), expected);
            }
        }
        let empty = Matrix::from_vec(2, 0, Vec::new()).unwrap();
        let expected = serde_json::to_string(&FeaturesResponse {
            model: "m".into(),
            generation: 1,
            features: vec![Vec::new(), Vec::new()],
        })
        .unwrap();
        assert_eq!(encode_features("m", 1, &empty), expected);
        assert_eq!(
            encode_assign("m", 1, &[]),
            serde_json::to_string(&AssignResponse {
                model: "m".into(),
                generation: 1,
                assignments: Vec::new(),
            })
            .unwrap()
        );
    }

    #[test]
    fn matrix_round_trips_through_rows() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let rows = matrix_to_rows(&m);
        assert_eq!(rows, vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(Matrix::from_rows(&rows).unwrap(), m);
    }
}
