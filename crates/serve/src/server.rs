//! The HTTP JSON inference server: acceptor threads draining a
//! `TcpListener` into per-connection handler threads that share a
//! hot-swappable [`LiveRegistry`] and one cross-request [`Batcher`].
//!
//! ## Endpoints
//!
//! The API is versioned under `/v1/`; the bare unversioned paths remain as
//! byte-identical aliases. A `/v{n}` prefix other than `/v1` answers a
//! structured `404`.
//!
//! | Method | Path (canonical) | Alias | Body | Success response |
//! |--------|------------------|-------|------|------------------|
//! | `GET` | `/v1/healthz` | `/healthz` | — | `{"status":"ok","models":N}` |
//! | `GET` | `/v1/models` | `/models` | — | `{"generation":G,"models":[{name, kind, ...}]}` |
//! | `POST` | `/v1/models/{name}/features` | `/models/{name}/features` | `{"rows":[[f64,...],...]}` | `{"model":name,"generation":G,"features":[[f64,...],...]}` |
//! | `POST` | `/v1/models/{name}/assign` | `/models/{name}/assign` | `{"rows":[[f64,...],...]}` | `{"model":name,"generation":G,"assignments":[usize,...]}` |
//! | `GET` | `/admin/statz` | `/statz` (deprecated) | — | batching + registry counters, see [`BatchStatsResponse`] |
//! | `POST` | `/admin/reload` | — | — | [`ReloadResponse`] — `200` swapped, `409` rejected |
//! | `POST` | `/admin/drain` | — | — | [`DrainResponse`] — `/healthz` fails from now on |
//!
//! Unknown paths and model names answer `404`, malformed bodies and shape
//! mismatches `400`, wrong methods on known paths `405`, oversized declared
//! bodies `413` (rejected *before* buffering); every error body is
//! `{"error": "...", "code": "..."}` with a stable machine-readable code
//! from [`crate::api::code`].
//!
//! ## Hot reload
//!
//! Each request resolves the current [`RegistryGeneration`] exactly once and
//! serves entirely from that snapshot, so a concurrent `POST /admin/reload`
//! (or `--watch-interval-ms` directory watcher) swap never fails or tears an
//! in-flight request — the old generation drains and frees itself. See
//! [`crate::live`].
//!
//! ## Connection model
//!
//! Connections are HTTP/1.1 **keep-alive** by default: a handler thread
//! loops reading requests off one socket (pipelining falls out naturally —
//! responses are written in request order) until the client sends
//! `Connection: close`, the idle timeout elapses, the per-connection
//! request cap is reached, or framing breaks (`400` + close, since a
//! desynced stream cannot be trusted — the request-smuggling guard).
//!
//! ## Micro-batching
//!
//! Rows within one request are always micro-batched through a single
//! matrix multiply. With a batch window configured
//! ([`BatchConfig`], `SLS_BATCH_WINDOW_US`), concurrent requests for the
//! same model are additionally coalesced into one fused launch — bitwise
//! identical to serving them one by one (see [`crate::batch`]).

use crate::api::{
    code, decode_rows, encode_assign, encode_features, BatchStatsResponse, DrainResponse,
    ErrorResponse, HealthResponse, ModelInfo, ModelsResponse, ReloadResponse,
};
use crate::batch::{compute_direct, BatchConfig, BatchOutput, Batcher, Endpoint};
use crate::http::{
    read_request_limited, write_response, write_response_keep_alive, HttpLimits, Request,
    RequestRead, MAX_BODY_BYTES,
};
use crate::live::{LiveRegistry, RegistryGeneration};
use crate::registry::ModelRegistry;
use crate::Result;
use serde::Serialize;
use sls_linalg::{ParallelPolicy, WorkerPool};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

/// Per-request read/write timeout once a request has started arriving — a
/// stalled client must not pin a handler thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// How often an idle connection re-checks the shutdown flag while parked
/// waiting for the next request.
pub(crate) const SHUTDOWN_POLL: Duration = Duration::from_millis(100);

/// Environment variable overriding the request body size limit in bytes.
pub const ENV_MAX_BODY_BYTES: &str = "SLS_MAX_BODY_BYTES";

/// Connection-handling knobs of the [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Whether connections are kept alive between requests at all
    /// (`false` restores one-request-per-connection).
    pub keep_alive: bool,
    /// How long an idle keep-alive connection is held open waiting for its
    /// next request before the server closes it.
    pub idle_timeout: Duration,
    /// Requests served on one connection before the server closes it
    /// (`Connection: close` on the capping response); clamped to ≥ 1.
    pub max_requests_per_connection: usize,
    /// Largest request body buffered; larger declarations answer `413`
    /// before any body byte is allocated.
    pub max_body_bytes: usize,
    /// Connections handled concurrently; excess connections are answered
    /// `503` and closed immediately.
    pub max_connections: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            keep_alive: true,
            idle_timeout: Duration::from_secs(5),
            max_requests_per_connection: 1000,
            max_body_bytes: MAX_BODY_BYTES,
            max_connections: 1024,
        }
    }
}

impl ServeOptions {
    /// Defaults with `SLS_MAX_BODY_BYTES` honoured when set.
    ///
    /// # Panics
    ///
    /// Panics when the variable is set but unparsable — a typo must not
    /// silently restore the unbounded default.
    pub fn from_env() -> Self {
        let mut options = Self::default();
        if let Ok(raw) = std::env::var(ENV_MAX_BODY_BYTES) {
            let trimmed = raw.trim();
            if !trimmed.is_empty() {
                options.max_body_bytes = trimmed.parse().unwrap_or_else(|_| {
                    panic!("{ENV_MAX_BODY_BYTES} must be a byte count, got `{raw}`")
                });
            }
        }
        options
    }
}

/// A bound (but not yet serving) inference server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    live: Arc<LiveRegistry>,
    workers: usize,
    parallel: ParallelPolicy,
    options: ServeOptions,
    batch: BatchConfig,
    watch: Option<Duration>,
}

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port) with `workers`
    /// acceptor threads (clamped to at least 1); each accepted connection
    /// gets its own handler thread, bounded by
    /// [`ServeOptions::max_connections`]. Inference micro-batches run under
    /// the process-wide [`ParallelPolicy::global`] unless overridden with
    /// [`Server::with_parallel`]; connection handling defaults to
    /// [`ServeOptions::from_env`] and batching to [`BatchConfig::from_env`]
    /// (`SLS_BATCH_WINDOW_US` / `SLS_BATCH_MAX_ROWS`, off by default).
    ///
    /// When the policy enables pooled dispatch, the persistent linalg
    /// [`WorkerPool`] is constructed here, at bind time: one pool, shared
    /// by every connection for the server's lifetime.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from binding.
    pub fn bind(addr: impl ToSocketAddrs, registry: ModelRegistry, workers: usize) -> Result<Self> {
        Self::bind_live(addr, LiveRegistry::new(registry), workers)
    }

    /// [`Server::bind`] over an already-built [`LiveRegistry`] — the form
    /// the `serve` binary uses so `POST /admin/reload` (and the optional
    /// directory watcher) can swap generations from the artifact directory.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from binding.
    pub fn bind_live(addr: impl ToSocketAddrs, live: LiveRegistry, workers: usize) -> Result<Self> {
        let parallel = ParallelPolicy::global();
        if parallel.pool {
            let _ = WorkerPool::global();
        }
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            live: Arc::new(live),
            workers: workers.max(1),
            parallel,
            options: ServeOptions::from_env(),
            batch: BatchConfig::from_env(),
            watch: None,
        })
    }

    /// Sets the parallel execution policy for inference micro-batches
    /// (the matrix multiply behind `/features` and `/assign`). Responses
    /// are bitwise identical for every policy. A pooled policy starts the
    /// shared persistent [`WorkerPool`] immediately, so the first request
    /// never pays pool construction.
    pub fn with_parallel(mut self, parallel: ParallelPolicy) -> Self {
        if parallel.pool {
            let _ = WorkerPool::global();
        }
        self.parallel = parallel;
        self
    }

    /// Overrides the connection-handling knobs (keep-alive, timeouts,
    /// body/connection limits).
    pub fn with_options(mut self, options: ServeOptions) -> Self {
        self.options = ServeOptions {
            max_requests_per_connection: options.max_requests_per_connection.max(1),
            ..options
        };
        self
    }

    /// Overrides the cross-request batching knobs (window and row cap).
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.batch = BatchConfig {
            max_rows: batch.max_rows.max(1),
            ..batch
        };
        self
    }

    /// Enables directory-watch hot reload: every `interval` the artifact
    /// directory's `(name, mtime, len)` fingerprint is re-scanned off the
    /// request path, and a change triggers the same atomic reload as
    /// `POST /admin/reload`. `None` (the default) disables the watcher; it
    /// is also inert when the registry has no source directory.
    pub fn with_watch(mut self, interval: Option<Duration>) -> Self {
        self.watch = interval.filter(|i| !i.is_zero());
        self
    }

    /// The address the listener is bound to.
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the local address cannot be read.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// Spawns the acceptor threads and returns a handle for address lookup
    /// and shutdown.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from thread spawning.
    pub fn start(self) -> Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let listener = Arc::new(self.listener);
        let core = Arc::new(ConnCore::new(self.options));
        let shared = Arc::new(Shared {
            live: self.live,
            parallel: self.parallel,
            batcher: Batcher::new(self.batch),
            draining: AtomicBool::new(false),
        });
        let acceptors = spawn_acceptors(&listener, &core, &shared, self.workers)?;
        let watcher = match self.watch {
            Some(interval) if shared.live.source().is_some() => {
                let live = Arc::clone(&shared.live);
                let core = Arc::clone(&core);
                // The baseline is taken before `start` returns: a rewrite
                // the caller makes right after must count as a change, not
                // race the watcher thread's first look at the directory.
                let seen = dir_fingerprint(&live);
                Some(
                    std::thread::Builder::new()
                        .name("sls-serve-watch".to_string())
                        .spawn(move || watcher_loop(&live, seen, &core.shutdown, interval))?,
                )
            }
            _ => None,
        };
        Ok(ServerHandle {
            addr,
            core,
            shared,
            acceptors,
            watcher,
        })
    }
}

/// Connection-handling state shared by every server-like frontend (the
/// inference server and the shard router): the knobs, the shutdown flag and
/// the live-connection count. Everything request-specific lives behind
/// [`RequestHandler`].
#[derive(Debug)]
pub(crate) struct ConnCore {
    pub(crate) options: ServeOptions,
    pub(crate) shutdown: AtomicBool,
    pub(crate) active_connections: AtomicUsize,
}

impl ConnCore {
    pub(crate) fn new(options: ServeOptions) -> Self {
        Self {
            options,
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
        }
    }
}

/// Answers one parsed request with `(status, body)`. Implemented by the
/// inference server (route against the live registry) and the shard router
/// (forward to an owning replica); both share the exact same keep-alive
/// connection machinery around it.
pub(crate) trait RequestHandler: Send + Sync + 'static {
    fn handle(&self, request: &Request) -> (u16, String);
}

/// Inference state shared by every connection handler.
#[derive(Debug)]
struct Shared {
    live: Arc<LiveRegistry>,
    parallel: ParallelPolicy,
    batcher: Batcher,
    draining: AtomicBool,
}

impl RequestHandler for Shared {
    fn handle(&self, request: &Request) -> (u16, String) {
        route_inner(
            &self.live,
            request,
            &self.parallel,
            Some(&self.batcher),
            Some(&self.draining),
        )
    }
}

/// Decrements the live-connection count when a handler thread exits on any
/// path, including panics.
struct ConnGuard(Arc<ConnCore>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.active_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Spawns `workers` acceptor threads over one listener, all driving the
/// same handler.
pub(crate) fn spawn_acceptors<H: RequestHandler>(
    listener: &Arc<TcpListener>,
    core: &Arc<ConnCore>,
    handler: &Arc<H>,
    workers: usize,
) -> Result<Vec<JoinHandle<()>>> {
    let mut acceptors = Vec::with_capacity(workers);
    for worker_id in 0..workers {
        let listener = Arc::clone(listener);
        let core = Arc::clone(core);
        let handler = Arc::clone(handler);
        acceptors.push(
            std::thread::Builder::new()
                .name(format!("sls-serve-accept-{worker_id}"))
                .spawn(move || acceptor_loop(&listener, &core, &handler))?,
        );
    }
    Ok(acceptors)
}

/// Stops an acceptor pool: sets the shutdown flag, nudges each still-blocked
/// acceptor with a wake-up connection until it exits, then waits (bounded)
/// for live connections to observe the flag and drain.
pub(crate) fn shutdown_acceptors(
    addr: SocketAddr,
    core: &ConnCore,
    acceptors: Vec<JoinHandle<()>>,
) {
    core.shutdown.store(true, Ordering::SeqCst);
    for acceptor in acceptors {
        // An acceptor can be blocked in `accept` (the wake-up connection
        // unblocks it) or mid-dispatch (it re-checks the flag right
        // after); keep nudging until this acceptor is done, since
        // another acceptor may have consumed an earlier wake-up.
        while !acceptor.is_finished() {
            let _ = TcpStream::connect(addr);
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = acceptor.join();
    }
    // Idle keep-alive connections poll the flag every SHUTDOWN_POLL;
    // give them a bounded window to drain instead of waiting forever on
    // a connection wedged mid-request.
    let deadline = Instant::now() + Duration::from_secs(5);
    while core.active_connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A running server: the acceptor pool plus the shared shutdown flag.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    core: Arc<ConnCore>,
    shared: Arc<Shared>,
    acceptors: Vec<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server accepts connections on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hot-swappable registry this server serves from — lets an
    /// embedding process trigger reloads or read swap counters directly.
    pub fn live(&self) -> Arc<LiveRegistry> {
        Arc::clone(&self.shared.live)
    }

    /// Blocks the calling thread until every acceptor exits (effectively
    /// forever unless another thread triggers shutdown) — what the
    /// `sls-serve serve` binary wants.
    pub fn join(self) {
        for acceptor in self.acceptors {
            let _ = acceptor.join();
        }
        if let Some(watcher) = self.watcher {
            let _ = watcher.join();
        }
    }

    /// Stops the server: sets the shutdown flag, nudges each still-blocked
    /// acceptor with a wake-up connection until it exits, then waits
    /// (bounded) for live connections to observe the flag and drain.
    pub fn shutdown(self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        if let Some(watcher) = self.watcher {
            // The watcher polls the flag at least every SHUTDOWN_POLL.
            let _ = watcher.join();
        }
        shutdown_acceptors(self.addr, &self.core, self.acceptors);
    }
}

/// One `(name, mtime, len, checksum)` entry per artifact file. Name, mtime
/// and length alone miss a real case: a retrain exporting an equal-size
/// artifact within the filesystem's mtime granularity (same second on many
/// filesystems) looks identical and is silently never reloaded. The checksum
/// closes that hole without hashing whole files — it folds the length plus
/// the first and last [`FINGERPRINT_PROBE_BYTES`] of content through FNV-1a,
/// and generation counters / trained weights live in exactly those regions
/// of the JSON exports.
type DirFingerprint = Vec<(String, Option<SystemTime>, u64, u64)>;

/// How many bytes of head and of tail feed the fingerprint checksum.
const FINGERPRINT_PROBE_BYTES: usize = 4096;

/// FNV-1a over the file's length and its first/last
/// [`FINGERPRINT_PROBE_BYTES`] bytes. Reads at most 8 KiB per artifact, so
/// the poll stays cheap even for large exports.
fn probe_checksum(path: &std::path::Path, len: u64) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut fold = |bytes: &[u8]| {
        for &byte in bytes {
            hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    };
    fold(&len.to_le_bytes());
    let Ok(mut file) = std::fs::File::open(path) else {
        return hash;
    };
    use std::io::{Read, Seek, SeekFrom};
    // `read` may legally return fewer bytes than the buffer holds; a single
    // call would make the checksum depend on how the kernel chunked the
    // read, so the same unchanged file could hash differently across polls
    // and trigger spurious reloads. Loop until the probe window is full or
    // EOF.
    fn read_probe(file: &mut std::fs::File, buf: &mut [u8]) -> usize {
        let mut filled = 0;
        while filled < buf.len() {
            match file.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        filled
    }
    let mut head = [0u8; FINGERPRINT_PROBE_BYTES];
    let read = read_probe(&mut file, &mut head);
    fold(&head[..read]);
    if len > FINGERPRINT_PROBE_BYTES as u64 {
        let tail_start = len.saturating_sub(FINGERPRINT_PROBE_BYTES as u64);
        let mut tail = [0u8; FINGERPRINT_PROBE_BYTES];
        if file.seek(SeekFrom::Start(tail_start)).is_ok() {
            let read = read_probe(&mut file, &mut tail);
            fold(&tail[..read]);
        }
    }
    hash
}

fn dir_fingerprint(live: &LiveRegistry) -> DirFingerprint {
    let Some(dir) = live.source() else {
        return Vec::new();
    };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut fingerprint: DirFingerprint = entries
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|ext| ext == "json"))
        .map(|e| {
            let meta = e.metadata().ok();
            let len = meta.as_ref().map_or(0, |m| m.len());
            (
                e.file_name().to_string_lossy().into_owned(),
                meta.as_ref().and_then(|m| m.modified().ok()),
                len,
                probe_checksum(&e.path(), len),
            )
        })
        .collect();
    fingerprint.sort();
    fingerprint
}

/// Directory-watch thread: starting from the fingerprint `seen`, polls the
/// artifact directory fingerprint every `interval` (in shutdown-aware
/// steps) and triggers an atomic reload on change. A rejected reload (e.g.
/// a half-written artifact) is retried on the *next* change, not every
/// tick, so a corrupt file does not spin the failure counter.
fn watcher_loop(
    live: &LiveRegistry,
    mut seen: DirFingerprint,
    shutdown: &AtomicBool,
    interval: Duration,
) {
    loop {
        let deadline = Instant::now() + interval;
        while Instant::now() < deadline {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(
                SHUTDOWN_POLL.min(deadline.saturating_duration_since(Instant::now())),
            );
        }
        let now = dir_fingerprint(live);
        if now != seen {
            let _ = live.reload();
            seen = now;
        }
    }
}

fn acceptor_loop<H: RequestHandler>(
    listener: &TcpListener,
    core: &Arc<ConnCore>,
    handler: &Arc<H>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                // Accept failure: aborted handshakes are transient, but
                // resource exhaustion (e.g. EMFILE under fd pressure) makes
                // accept fail immediately in a loop — back off briefly so
                // the handlers draining existing connections can free
                // descriptors instead of being starved by the spin.
                if core.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if core.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if core.active_connections.load(Ordering::SeqCst) >= core.options.max_connections {
            // Over capacity: shed load with an immediate 503 instead of
            // queueing a connection no handler will reach.
            let mut stream = stream;
            let (_, body) = error_body(503, code::OVER_CAPACITY, "server at connection capacity");
            let _ = write_response(&mut stream, 503, &body);
            continue;
        }
        core.active_connections.fetch_add(1, Ordering::SeqCst);
        let guard = ConnGuard(Arc::clone(core));
        let handler = Arc::clone(handler);
        let spawned = std::thread::Builder::new()
            .name("sls-serve-conn".to_string())
            .spawn(move || {
                // A broken client connection must not take the server down;
                // the error is simply dropped with the connection.
                let _ = handle_connection(stream, &guard.0, handler.as_ref());
            });
        // Spawn failure drops the closure, whose guard decrements the
        // counter; nothing else to do beyond dropping the connection.
        drop(spawned);
    }
}

/// Outcome of parking on an idle connection.
enum IdleWait {
    /// Bytes of the next request are ready (or already buffered).
    Ready,
    /// The connection closed, idled out, or the server is shutting down.
    Closed,
}

/// Parks until the next request's first byte arrives, without consuming it.
///
/// The socket read timeout is dropped to [`SHUTDOWN_POLL`] so the wait can
/// interleave shutdown-flag checks; only *complete inactivity* counts
/// against the idle budget, and no request byte is ever buffered then lost
/// (`fill_buf` peeks without consuming).
fn wait_for_request(
    reader: &mut BufReader<TcpStream>,
    idle_timeout: Duration,
    shutdown: &AtomicBool,
) -> IdleWait {
    if !reader.buffer().is_empty() {
        // Pipelined request already buffered behind the previous one.
        return IdleWait::Ready;
    }
    let poll = SHUTDOWN_POLL
        .min(idle_timeout)
        .max(Duration::from_millis(1));
    if reader.get_ref().set_read_timeout(Some(poll)).is_err() {
        return IdleWait::Closed;
    }
    let deadline = Instant::now() + idle_timeout;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return IdleWait::Closed;
        }
        match reader.fill_buf() {
            Ok([]) => return IdleWait::Closed,
            Ok(_) => return IdleWait::Ready,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= deadline {
                    return IdleWait::Closed;
                }
            }
            Err(_) => return IdleWait::Closed,
        }
    }
}

/// Serves one connection: a keep-alive request loop with idle timeout,
/// request cap, bounded body buffering and close-on-desync.
fn handle_connection<H: RequestHandler + ?Sized>(
    stream: TcpStream,
    core: &ConnCore,
    handler: &H,
) -> Result<()> {
    // Nagle's algorithm batches small writes behind delayed ACKs; on a
    // keep-alive connection (no fresh-connection quick-ACK grace) that
    // turns every request/response exchange into a ~40ms stall.
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let options = &core.options;
    let limits = HttpLimits::new(options.max_body_bytes);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut served = 0usize;
    loop {
        if let IdleWait::Closed =
            wait_for_request(&mut reader, options.idle_timeout, &core.shutdown)
        {
            return Ok(());
        }
        // A request is arriving: switch from the idle poll to the (much
        // longer) per-request I/O budget. The timeout lives on the shared
        // socket, so setting it through the writer half covers the reader.
        writer.set_read_timeout(Some(IO_TIMEOUT))?;
        served += 1;
        let may_keep_alive = options.keep_alive
            && served < options.max_requests_per_connection
            && !core.shutdown.load(Ordering::SeqCst);
        match read_request_limited(&mut reader, &limits) {
            Ok(RequestRead::Complete { request, close }) => {
                let keep = may_keep_alive && !close;
                let (status, body) = handler.handle(&request);
                write_response_keep_alive(&mut writer, status, &body, keep)?;
                if !keep {
                    return Ok(());
                }
            }
            Ok(RequestRead::TooLarge {
                declared,
                drained,
                close,
            }) => {
                // The body was never buffered; the connection survives only
                // when the declared bytes were actually drained, otherwise
                // the next "request" would start inside the unread body.
                let keep = may_keep_alive && drained && !close;
                let (status, body) = error_body(
                    413,
                    code::BODY_TOO_LARGE,
                    format!(
                        "body of {declared} bytes exceeds the {}-byte limit",
                        options.max_body_bytes
                    ),
                );
                write_response_keep_alive(&mut writer, status, &body, keep)?;
                if !keep {
                    return Ok(());
                }
            }
            Err(e) => {
                // Broken framing: answer 400 and close — after a framing
                // error the stream position is untrusted, and serving more
                // requests from it is the request-smuggling primitive.
                let (status, body) = error_body(
                    400,
                    code::MALFORMED_REQUEST,
                    format!("malformed request: {e}"),
                );
                let _ = write_response_keep_alive(&mut writer, status, &body, false);
                return Err(e);
            }
        }
    }
}

/// Routes one parsed request against the current generation of a
/// hot-swappable registry, returning `(status, body)`: the generation is
/// resolved exactly once, the whole request is served from that snapshot,
/// and `POST /admin/reload` is live. Inference requests go through
/// `batcher`'s coalescing window when one is given, and `GET /statz`
/// reports its counters.
///
/// Exposed for direct testing without sockets. Wrap a bare registry in
/// [`LiveRegistry::new`] to route over it: it reports generation 1 and
/// rejects `POST /admin/reload` with `409`.
pub fn route_live(
    live: &LiveRegistry,
    request: &Request,
    parallel: &ParallelPolicy,
    batcher: Option<&Batcher>,
) -> (u16, String) {
    route_inner(live, request, parallel, batcher, None)
}

/// Strips the `/v1` API-version prefix off a segmented path. The bare
/// unversioned path is the legacy alias, so both spell the same routes;
/// any *other* `/v{n}` prefix is answered with a structured 404 instead of
/// falling through to route matching (a `/v2` client must learn it speaks
/// the wrong version, not chase phantom 404s per route).
pub(crate) fn api_segments<'a>(
    segments: &'a [&'a str],
) -> std::result::Result<&'a [&'a str], (u16, String)> {
    match segments.split_first() {
        Some((&"v1", rest)) => Ok(rest),
        Some((&first, _)) if is_version_prefix(first) => Err(error_body(
            404,
            code::UNSUPPORTED_API_VERSION,
            format!("API version `{first}` is not supported; this server speaks `/v1`"),
        )),
        _ => Ok(segments),
    }
}

/// `v` followed by only digits — `v1`, `v2`, `v99`. A path like `/verbose`
/// is not a version prefix and falls through to normal route matching.
fn is_version_prefix(segment: &str) -> bool {
    segment.len() >= 2
        && segment.starts_with('v')
        && segment[1..].bytes().all(|b| b.is_ascii_digit())
}

fn route_inner(
    live: &LiveRegistry,
    request: &Request,
    parallel: &ParallelPolicy,
    batcher: Option<&Batcher>,
    draining: Option<&AtomicBool>,
) -> (u16, String) {
    let current: Arc<RegistryGeneration> = live.current();
    let (registry, generation) = (&current.registry, current.generation);
    let path = request.path.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let rest = match api_segments(&segments) {
        Ok(rest) => rest,
        Err(unsupported) => return unsupported,
    };
    match (request.method.as_str(), rest) {
        ("GET", ["healthz"]) => health(registry, draining),
        ("GET", ["models"]) => json_body(
            200,
            &ModelsResponse {
                generation,
                models: registry
                    .iter()
                    .map(|(name, model)| ModelInfo::describe(name, model))
                    .collect(),
            },
        ),
        // `/admin/statz` is canonical; top-level `/statz` is the deprecated
        // pre-v1 alias, kept byte-identical.
        ("GET", ["statz"] | ["admin", "statz"]) => json_body(
            200,
            &BatchStatsResponse::describe(batcher).with_registry(
                generation,
                live.swaps(),
                live.failed_reloads(),
            ),
        ),
        ("POST", ["admin", "reload"]) => reload(live),
        ("POST", ["admin", "drain"]) => drain(draining),
        ("POST", ["models", name, "features"]) => infer(
            registry,
            generation,
            name,
            Endpoint::Features,
            &request.body,
            parallel,
            batcher,
        ),
        ("POST", ["models", name, "assign"]) => infer(
            registry,
            generation,
            name,
            Endpoint::Assign,
            &request.body,
            parallel,
            batcher,
        ),
        (_, ["healthz" | "models" | "statz"] | ["admin", "reload" | "statz" | "drain"])
        | (_, ["models", _, "features" | "assign"]) => error_body(
            405,
            code::METHOD_NOT_ALLOWED,
            format!("method {} not allowed here", request.method),
        ),
        _ => error_body(404, code::NOT_FOUND, format!("no route for `{path}`")),
    }
}

/// `GET /healthz`: `200 ok` normally, `503 draining` once the node was
/// drained — existing connections keep being served, but routers and load
/// balancers must stop sending new traffic here.
fn health(registry: &ModelRegistry, draining: Option<&AtomicBool>) -> (u16, String) {
    if draining.is_some_and(|flag| flag.load(Ordering::SeqCst)) {
        return error_body(
            503,
            code::DRAINING,
            "node is draining: open connections finish, new traffic must go elsewhere",
        );
    }
    json_body(
        200,
        &HealthResponse {
            status: "ok".to_string(),
            models: registry.len(),
        },
    )
}

/// `POST /admin/drain`: flip the node into draining mode (idempotent).
/// Only a socket-backed server carries the flag; in-process routing
/// through [`route_live`] answers 409.
fn drain(draining: Option<&AtomicBool>) -> (u16, String) {
    let Some(flag) = draining else {
        return error_body(
            409,
            code::DRAIN_UNAVAILABLE,
            "drain is not available: in-process routing has no connection state",
        );
    };
    flag.store(true, Ordering::SeqCst);
    json_body(
        200,
        &DrainResponse {
            status: "draining".to_string(),
            draining: true,
        },
    )
}

/// `POST /admin/reload`: atomically swap in a new generation from the
/// artifact directory, or report exactly why the old one keeps serving.
fn reload(live: &LiveRegistry) -> (u16, String) {
    let outcome = live.reload();
    let status = if outcome.swapped { 200 } else { 409 };
    json_body(
        status,
        &ReloadResponse {
            status: if outcome.swapped {
                "swapped".to_string()
            } else {
                "rejected".to_string()
            },
            swapped: outcome.swapped,
            generation: outcome.generation,
            models: outcome.models,
            error: outcome.error,
        },
    )
}

/// Shared scaffolding of the two inference endpoints: model lookup (404),
/// body parsing and batch-matrix validation (400), then the fused or direct
/// compute; any model error also maps to 400 since inference on an
/// immutable artifact only fails on request-induced shape/capability
/// mismatches.
fn infer(
    registry: &ModelRegistry,
    generation: u64,
    name: &str,
    endpoint: Endpoint,
    body: &str,
    parallel: &ParallelPolicy,
    batcher: Option<&Batcher>,
) -> (u16, String) {
    let model = match registry.get(name) {
        Ok(model) => model,
        Err(e) => return error_body(404, code::MODEL_NOT_FOUND, e.to_string()),
    };
    let matrix = match decode_rows(body) {
        Ok(matrix) => matrix,
        Err((code, message)) => return error_body(400, code, message),
    };
    // Doomed requests are rejected up front: they must fail with exactly
    // the error they would get alone, not poison a batch or inherit a
    // batch's error, and each failure class carries its own stable code.
    if matrix.cols() != model.n_visible() {
        return error_body(
            400,
            code::BAD_ROW_WIDTH,
            format!(
                "rows are {} wide but model `{name}` expects {} visible units",
                matrix.cols(),
                model.n_visible()
            ),
        );
    }
    if endpoint == Endpoint::Assign && !model.has_cluster_head() {
        return error_body(
            400,
            code::NO_CLUSTER_HEAD,
            format!("model `{name}` has no cluster head; `/assign` is unavailable"),
        );
    }
    // Only well-shaped requests reach this point, so everything may enter
    // the coalescing window. The generation rides in the batch key, so a
    // swap mid-window never fuses two model versions.
    let result = match batcher {
        Some(batcher) => batcher.submit(&model, name, generation, endpoint, &matrix, parallel),
        None => compute_direct(&model, endpoint, &matrix, parallel),
    };
    match result {
        Ok(BatchOutput::Features(features)) => (200, encode_features(name, generation, &features)),
        Ok(BatchOutput::Assign(assignments)) => {
            (200, encode_assign(name, generation, &assignments))
        }
        Err(message) => error_body(400, code::INFERENCE_FAILED, message),
    }
}

pub(crate) fn json_body<T: Serialize>(status: u16, value: &T) -> (u16, String) {
    match serde_json::to_string(value) {
        Ok(body) => (status, body),
        Err(e) => (
            500,
            format!("{{\"error\":\"serialisation failed: {e}\",\"code\":\"internal\"}}"),
        ),
    }
}

pub(crate) fn error_body(
    status: u16,
    code: &'static str,
    message: impl Into<String>,
) -> (u16, String) {
    json_body(
        status,
        &ErrorResponse {
            error: message.into(),
            code: code.to_string(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{AssignResponse, FeaturesResponse};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sls_datasets::SyntheticBlobs;
    use sls_rbm_core::{ModelKind, SlsPipelineConfig};

    fn registry() -> ModelRegistry {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let ds = SyntheticBlobs::new(30, 4, 2)
            .separation(6.0)
            .generate(&mut rng);
        let fitted = sls_rbm_core::PipelineArtifact::fit(
            ModelKind::Grbm,
            SlsPipelineConfig::quick_demo()
                .with_clusters(2)
                .with_hidden(4),
            ds.features(),
            &mut rng,
        )
        .unwrap();
        let mut registry = ModelRegistry::new();
        registry.insert("demo", fitted.artifact);
        registry
    }

    /// The test registry behind a dir-less live registry: generation 1,
    /// `POST /admin/reload` answers 409.
    fn live() -> LiveRegistry {
        LiveRegistry::new(registry())
    }

    /// Routes under the process-wide policy, without a batcher.
    fn call(live: &LiveRegistry, request: &Request) -> (u16, String) {
        route_live(live, request, &ParallelPolicy::global(), None)
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            body: body.to_string(),
        }
    }

    #[test]
    fn healthz_reports_model_count() {
        let (status, body) = call(&live(), &request("GET", "/healthz", ""));
        assert_eq!(status, 200);
        let health: HealthResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(health.status, "ok");
        assert_eq!(health.models, 1);
    }

    #[test]
    fn models_lists_loaded_artifacts() {
        let (status, body) = call(&live(), &request("GET", "/models", ""));
        assert_eq!(status, 200);
        let models: ModelsResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(models.models.len(), 1);
        assert_eq!(models.models[0].name, "demo");
        assert_eq!(models.models[0].kind, "grbm");
        assert_eq!(models.models[0].n_visible, 4);
        assert_eq!(models.models[0].n_clusters, Some(2));
    }

    #[test]
    fn statz_reports_batcher_counters() {
        // Without a batcher: the disabled shape.
        let (status, body) = call(&live(), &request("GET", "/statz", ""));
        assert_eq!(status, 200);
        let stats: BatchStatsResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(stats.window_us, 0);
        assert_eq!(stats.batches, 0);

        // With one: config echoed, counters live.
        let live = live();
        let batcher = Batcher::new(BatchConfig {
            window: Duration::from_micros(250),
            max_rows: 64,
        });
        let body = "{\"rows\":[[0.1,0.2,0.3,0.4]]}";
        let (status, response) = route_live(
            &live,
            &request("POST", "/models/demo/features", body),
            &ParallelPolicy::serial(),
            Some(&batcher),
        );
        assert_eq!(status, 200, "{response}");
        let (status, body) = route_live(
            &live,
            &request("GET", "/statz", ""),
            &ParallelPolicy::serial(),
            Some(&batcher),
        );
        assert_eq!(status, 200);
        let stats: BatchStatsResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(stats.window_us, 250);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batched_requests, 1);
    }

    #[test]
    fn features_and_assign_answer_batches() {
        let live = live();
        let body = "{\"rows\":[[0.1,0.2,0.3,0.4],[1.0,1.1,1.2,1.3],[2.0,2.1,2.2,2.3]]}";
        let (status, response) = call(&live, &request("POST", "/models/demo/features", body));
        assert_eq!(status, 200, "{response}");
        let features: FeaturesResponse = serde_json::from_str(&response).unwrap();
        assert_eq!(features.features.len(), 3);
        assert_eq!(features.features[0].len(), 4);

        let (status, response) = call(&live, &request("POST", "/models/demo/assign", body));
        assert_eq!(status, 200, "{response}");
        let assign: AssignResponse = serde_json::from_str(&response).unwrap();
        assert_eq!(assign.assignments.len(), 3);
        assert!(assign.assignments.iter().all(|&l| l < 2));
    }

    #[test]
    fn batched_routing_answers_byte_identical_responses() {
        // One request through the coalescing window (it just times out
        // alone) must answer the exact bytes of the direct path.
        let live = live();
        let batcher = Batcher::new(BatchConfig {
            window: Duration::from_micros(200),
            max_rows: 64,
        });
        let body = "{\"rows\":[[0.1,0.2,0.3,0.4],[1.0,1.1,1.2,1.3]]}";
        for path in ["/models/demo/features", "/models/demo/assign"] {
            let request = request("POST", path, body);
            let direct = route_live(&live, &request, &ParallelPolicy::serial(), None);
            let batched = route_live(&live, &request, &ParallelPolicy::serial(), Some(&batcher));
            assert_eq!(direct, batched, "path {path}");
            assert_eq!(direct.0, 200);
        }
    }

    #[test]
    fn unknown_model_is_404() {
        let (status, body) = call(
            &live(),
            &request("POST", "/models/ghost/features", "{\"rows\":[[1.0]]}"),
        );
        assert_eq!(status, 404);
        let err: ErrorResponse = serde_json::from_str(&body).unwrap();
        assert!(err.error.contains("ghost"));
    }

    #[test]
    fn unknown_path_is_404_and_wrong_method_is_405() {
        assert_eq!(call(&live(), &request("GET", "/nope", "")).0, 404);
        assert_eq!(call(&live(), &request("POST", "/healthz", "")).0, 405);
        assert_eq!(call(&live(), &request("POST", "/statz", "")).0, 405);
        assert_eq!(
            call(&live(), &request("GET", "/models/demo/features", "")).0,
            405
        );
    }

    #[test]
    fn bad_bodies_are_400() {
        let live = live();
        for body in [
            "not json",
            "{\"rows\":[]}",
            "{\"rows\":[[1.0],[1.0,2.0]]}",
            // Wrong width for the 4-visible model.
            "{\"rows\":[[1.0,2.0]]}",
        ] {
            let (status, response) = call(&live, &request("POST", "/models/demo/features", body));
            assert_eq!(status, 400, "body `{body}` answered {response}");
        }
    }

    #[test]
    fn bad_bodies_are_400_with_a_batcher_too() {
        // The malformed-request errors must be identical whether or not a
        // batch window is configured — doomed requests bypass coalescing.
        let live = live();
        let batcher = Batcher::new(BatchConfig {
            window: Duration::from_micros(200),
            max_rows: 64,
        });
        for (path, body) in [
            ("/models/demo/features", "{\"rows\":[[1.0,2.0]]}"),
            ("/models/demo/features", "not json"),
            ("/models/ghost/assign", "{\"rows\":[[1.0]]}"),
        ] {
            let request = request("POST", path, body);
            let direct = route_live(&live, &request, &ParallelPolicy::serial(), None);
            let batched = route_live(&live, &request, &ParallelPolicy::serial(), Some(&batcher));
            assert_eq!(direct, batched, "path {path} body `{body}`");
            assert!(!direct.1.is_empty());
        }
        assert_eq!(
            batcher.stats().batches,
            0,
            "doomed requests must never enter the window"
        );
    }

    #[test]
    fn query_strings_are_ignored_for_routing() {
        let (status, _) = call(&live(), &request("GET", "/healthz?verbose=1", ""));
        assert_eq!(status, 200);
    }

    #[test]
    fn parallel_routing_answers_byte_identical_responses() {
        // The serving contract of the parallel layer: a client can never
        // tell from a response body how many threads computed it.
        let live = live();
        let body = "{\"rows\":[[0.1,0.2,0.3,0.4],[1.0,1.1,1.2,1.3],[2.0,2.1,2.2,2.3]]}";
        for path in ["/models/demo/features", "/models/demo/assign"] {
            let request = request("POST", path, body);
            let serial = route_live(&live, &request, &ParallelPolicy::serial(), None);
            let parallel = route_live(
                &live,
                &request,
                &ParallelPolicy::new(4).with_min_rows_per_thread(1),
                None,
            );
            assert_eq!(serial, parallel, "path {path}");
            assert_eq!(serial.0, 200);
            // Persistent-pool dispatch answers the same bytes too.
            let pooled = route_live(
                &live,
                &request,
                &ParallelPolicy::new(4)
                    .with_min_rows_per_thread(1)
                    .with_pool(true),
                None,
            );
            assert_eq!(serial, pooled, "pooled path {path}");
        }
    }

    #[test]
    fn reload_on_a_bare_registry_is_409_with_structured_body() {
        let (status, body) = call(&live(), &request("POST", "/admin/reload", ""));
        assert_eq!(status, 409);
        let reload: ReloadResponse = serde_json::from_str(&body).unwrap();
        assert!(!reload.swapped);
        assert_eq!(reload.generation, 1);
        assert!(reload.error.unwrap().contains("not enabled"));
        // Wrong method on the admin path is 405, like every known path.
        assert_eq!(call(&live(), &request("GET", "/admin/reload", "")).0, 405);
    }

    #[test]
    fn route_live_swaps_generations_and_reports_them_everywhere() {
        let dir =
            std::env::temp_dir().join(format!("sls_serve_server_reload_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let ds = SyntheticBlobs::new(30, 4, 2)
            .separation(6.0)
            .generate(&mut rng);
        let fitted = sls_rbm_core::PipelineArtifact::fit(
            ModelKind::Grbm,
            SlsPipelineConfig::quick_demo()
                .with_clusters(2)
                .with_hidden(4),
            ds.features(),
            &mut rng,
        )
        .unwrap();
        fitted.artifact.save(dir.join("demo.json")).unwrap();
        let live = LiveRegistry::from_dir(&dir, false).unwrap();
        let policy = ParallelPolicy::serial();

        let body = "{\"rows\":[[0.1,0.2,0.3,0.4]]}";
        let (status, response) = route_live(
            &live,
            &request("POST", "/models/demo/features", body),
            &policy,
            None,
        );
        assert_eq!(status, 200, "{response}");
        let before: FeaturesResponse = serde_json::from_str(&response).unwrap();
        assert_eq!(before.generation, 1);

        // Re-export a different model under the same name and reload.
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let retrained = sls_rbm_core::PipelineArtifact::fit(
            ModelKind::Grbm,
            SlsPipelineConfig::quick_demo()
                .with_clusters(2)
                .with_hidden(4),
            ds.features(),
            &mut rng,
        )
        .unwrap();
        retrained.artifact.save(dir.join("demo.json")).unwrap();
        let (status, response) =
            route_live(&live, &request("POST", "/admin/reload", ""), &policy, None);
        assert_eq!(status, 200, "{response}");
        let reload: ReloadResponse = serde_json::from_str(&response).unwrap();
        assert!(reload.swapped);
        assert_eq!(reload.generation, 2);
        assert!(reload.models.iter().all(|m| m.loaded));

        let (_, response) = route_live(
            &live,
            &request("POST", "/models/demo/features", body),
            &policy,
            None,
        );
        let after: FeaturesResponse = serde_json::from_str(&response).unwrap();
        assert_eq!(after.generation, 2);
        assert_ne!(
            before.features, after.features,
            "retrained model must answer differently"
        );

        let (_, response) = route_live(&live, &request("GET", "/models", ""), &policy, None);
        let models: ModelsResponse = serde_json::from_str(&response).unwrap();
        assert_eq!(models.generation, 2);

        let (_, response) = route_live(&live, &request("GET", "/statz", ""), &policy, None);
        let stats: BatchStatsResponse = serde_json::from_str(&response).unwrap();
        assert_eq!(stats.generation, 2);
        assert_eq!(stats.registry_swaps, 1);
        assert_eq!(stats.failed_reloads, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_queues_stay_bounded_across_hot_swaps() {
        let dir =
            std::env::temp_dir().join(format!("sls_serve_server_queues_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let ds = SyntheticBlobs::new(30, 4, 2)
            .separation(6.0)
            .generate(&mut rng);
        sls_rbm_core::PipelineArtifact::fit(
            ModelKind::Grbm,
            SlsPipelineConfig::quick_demo()
                .with_clusters(2)
                .with_hidden(4),
            ds.features(),
            &mut rng,
        )
        .unwrap()
        .artifact
        .save(dir.join("demo.json"))
        .unwrap();
        let live = LiveRegistry::from_dir(&dir, false).unwrap();
        let policy = ParallelPolicy::serial();
        let batcher = Batcher::new(BatchConfig {
            window: Duration::from_micros(100),
            max_rows: 64,
        });
        let body = "{\"rows\":[[0.1,0.2,0.3,0.4]]}";
        let (models, endpoints) = (1, 2);
        for reload in 0..50 {
            let (status, response) =
                route_live(&live, &request("POST", "/admin/reload", ""), &policy, None);
            assert_eq!(status, 200, "reload {reload}: {response}");
            for path in ["/models/demo/features", "/models/demo/assign"] {
                let (status, response) =
                    route_live(&live, &request("POST", path, body), &policy, Some(&batcher));
                assert_eq!(status, 200, "{path} after reload {reload}: {response}");
            }
            assert!(
                batcher.queue_count() <= 2 * models * endpoints,
                "{} queues after reload {reload}",
                batcher.queue_count()
            );
        }
        assert_eq!(batcher.stats().batched_requests, 100);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn server_binds_ephemeral_port_and_shuts_down() {
        let server = Server::bind("127.0.0.1:0", registry(), 2)
            .unwrap()
            .with_parallel(ParallelPolicy::new(2));
        let addr = server.local_addr().unwrap();
        assert_ne!(addr.port(), 0);
        let handle = server.start().unwrap();
        assert_eq!(handle.addr(), addr);
        handle.shutdown();
    }

    #[test]
    fn server_with_pooled_policy_serves_and_shuts_down() {
        // Bind-time pool construction plus real requests through the pooled
        // inference path, answered by concurrent connection handlers
        // sharing one linalg worker pool.
        let server = Server::bind("127.0.0.1:0", registry(), 2)
            .unwrap()
            .with_parallel(
                ParallelPolicy::new(4)
                    .with_min_rows_per_thread(1)
                    .with_pool(true),
            );
        let addr = server.local_addr().unwrap();
        let handle = server.start().unwrap();
        let client = crate::Client::new(addr);
        let body = "{\"rows\":[[0.1,0.2,0.3,0.4],[1.0,1.1,1.2,1.3],[2.0,2.1,2.2,2.3]]}";
        let reference = route_live(
            &live(),
            &request("POST", "/models/demo/features", body),
            &ParallelPolicy::serial(),
            None,
        );
        for _ in 0..4 {
            let response = client
                .request("POST", "/models/demo/features", body)
                .expect("pooled inference request");
            assert_eq!(response.status, 200);
            assert_eq!(response.body, reference.1);
        }
        handle.shutdown();
    }
}
