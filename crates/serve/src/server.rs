//! The HTTP front end: a `TcpListener` accept loop dispatching
//! thread-per-connection onto the [`Scheduler`].
//!
//! Endpoint surface (also exported as [`ENDPOINTS`] so tests can assert
//! the docs cover everything):
//!
//! | Method | Path                  | Purpose                              |
//! |--------|-----------------------|--------------------------------------|
//! | POST   | `/v1/jobs`            | submit a job (dedup + backpressure)  |
//! | GET    | `/v1/jobs/{id}`       | job status                           |
//! | GET    | `/v1/jobs/{id}/result`| fetch the result document            |
//! | GET    | `/v1/jobs/{id}/events`| Server-Sent-Events progress stream   |
//! | GET    | `/v1/healthz`         | liveness + queue/cache statistics    |
//! | POST   | `/v1/shutdown`        | graceful drain-and-stop              |
//!
//! Every connection is one request/response (`Connection: close`); a
//! panic in a handler is confined to its connection thread and answered
//! by the OS closing the socket, never by taking the server down.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sfet_telemetry::json::Object;

use crate::error::ApiError;
use crate::http::{begin_sse, write_error, write_json, Request};
use crate::json::Json;
use crate::scheduler::{Scheduler, ServeConfig};

/// Every route the server answers, as `"METHOD path-template"` strings.
/// `docs/SERVE.md` must document each one (the loopback suite asserts
/// it).
pub const ENDPOINTS: &[&str] = &[
    "POST /v1/jobs",
    "GET /v1/jobs/{id}",
    "GET /v1/jobs/{id}/result",
    "GET /v1/jobs/{id}/events",
    "GET /v1/healthz",
    "POST /v1/shutdown",
];

/// A running job server bound to a local address.
///
/// # Example
///
/// ```no_run
/// use sfet_serve::{Server, ServeConfig};
///
/// let server = Server::bind("127.0.0.1:0", ServeConfig::new("/tmp/sfet-results"))?;
/// println!("listening on {}", server.addr());
/// server.serve(); // blocks until POST /v1/shutdown
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    scheduler: Arc<Scheduler>,
    stopping: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener and spawns the worker pool. Use port 0 to let
    /// the OS pick a free port (see [`Server::addr`]).
    ///
    /// # Errors
    ///
    /// Socket bind or store-directory creation failures.
    pub fn bind(addr: &str, cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let scheduler = Arc::new(Scheduler::new(cfg)?);
        Ok(Server {
            listener,
            addr,
            scheduler,
            stopping: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scheduler behind this server (tests inspect its stats).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// Runs the accept loop on the calling thread until a
    /// `POST /v1/shutdown` arrives, then drains in-flight jobs and
    /// returns.
    pub fn serve(&self) {
        for conn in self.listener.incoming() {
            if self.stopping.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let scheduler = self.scheduler.clone();
            let stopping = self.stopping.clone();
            let addr = self.addr;
            std::thread::spawn(move || {
                let mut stream = stream;
                handle_connection(&mut stream, &scheduler, &stopping, addr);
            });
        }
        self.scheduler.shutdown();
    }

    /// Runs [`Server::serve`] on a background thread, returning a handle
    /// that joins it. The caller keeps using `self` through the `Arc`.
    pub fn spawn(self: &Arc<Server>) -> std::thread::JoinHandle<()> {
        let server = self.clone();
        std::thread::Builder::new()
            .name("sfet-serve-accept".into())
            .spawn(move || server.serve())
            .expect("spawn accept loop")
    }

    /// Requests shutdown from inside the process: flips the stop flag
    /// and unblocks the accept loop with a throwaway self-connection.
    pub fn stop(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
    }
}

fn handle_connection(
    stream: &mut TcpStream,
    scheduler: &Arc<Scheduler>,
    stopping: &AtomicBool,
    addr: SocketAddr,
) {
    let request = match Request::read_from(stream) {
        Ok(r) => r,
        Err(e) => {
            let _ = write_error(stream, &e);
            return;
        }
    };
    match route(&request, scheduler, stream) {
        Ok(Response::Json { status, body }) => {
            let _ = write_json(stream, status, &body);
        }
        Ok(Response::Streamed) => {}
        Ok(Response::Shutdown { body }) => {
            // Acknowledge, then flip the stop flag and poke the accept
            // loop with a throwaway connection so it notices.
            let _ = write_json(stream, 202, &body);
            if !stopping.swap(true, Ordering::SeqCst) {
                let _ = TcpStream::connect(addr);
            }
        }
        Err(e) => {
            let _ = write_error(stream, &e);
        }
    }
}

enum Response {
    Json {
        status: u16,
        body: String,
    },
    /// The handler already wrote the response (SSE).
    Streamed,
    /// 202 + drain after the response goes out.
    Shutdown {
        body: String,
    },
}

fn route(
    req: &Request,
    scheduler: &Arc<Scheduler>,
    stream: &mut TcpStream,
) -> Result<Response, ApiError> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["v1", "jobs"]) => submit(req, scheduler),
        ("GET", ["v1", "jobs", id]) => status(scheduler, id),
        ("GET", ["v1", "jobs", id, "result"]) => result(scheduler, id),
        ("GET", ["v1", "jobs", id, "events"]) => events(scheduler, id, stream),
        ("GET", ["v1", "healthz"]) => Ok(Response::Json {
            status: 200,
            body: scheduler.health_json(),
        }),
        ("POST", ["v1", "shutdown"]) => {
            let mut body = String::new();
            Object::new(&mut body).str("status", "draining");
            Ok(Response::Shutdown { body })
        }
        (_, ["v1", "jobs"])
        | (_, ["v1", "jobs", ..])
        | (_, ["v1", "healthz"])
        | (_, ["v1", "shutdown"]) => Err(ApiError::method_not_allowed(&req.method, &req.path)),
        _ => Err(ApiError::not_found(format!("no route for {}", req.path))),
    }
}

fn submit(req: &Request, scheduler: &Arc<Scheduler>) -> Result<Response, ApiError> {
    let text = req.body_utf8()?;
    let body = Json::parse(text).map_err(ApiError::invalid_json)?;
    let receipt = scheduler.submit(&body)?;
    let mut doc = String::new();
    Object::new(&mut doc)
        .str("api", crate::protocol::API_VERSION)
        .str("job_id", &format!("j-{}", receipt.job_id))
        .str("state", receipt.state)
        .bool("cached", receipt.cached)
        .bool("coalesced", receipt.coalesced);
    Ok(Response::Json {
        status: if receipt.cached { 200 } else { 202 },
        body: doc,
    })
}

/// Parses a `j-<n>` wire id (bare `<n>` is accepted too).
fn parse_job_id(raw: &str) -> Result<u64, ApiError> {
    raw.strip_prefix("j-")
        .unwrap_or(raw)
        .parse()
        .map_err(|_| ApiError::not_found(format!("malformed job id {raw:?}")))
}

fn lookup(scheduler: &Scheduler, raw: &str) -> Result<Arc<crate::scheduler::Job>, ApiError> {
    scheduler
        .job(parse_job_id(raw)?)
        .ok_or_else(|| ApiError::not_found(format!("no job {raw:?}")))
}

fn status(scheduler: &Arc<Scheduler>, raw: &str) -> Result<Response, ApiError> {
    let job = lookup(scheduler, raw)?;
    Ok(Response::Json {
        status: 200,
        body: job.status_json(),
    })
}

fn result(scheduler: &Arc<Scheduler>, raw: &str) -> Result<Response, ApiError> {
    let job = lookup(scheduler, raw)?;
    let document = scheduler.result_document(&job)?;
    Ok(Response::Json {
        status: 200,
        body: document,
    })
}

/// Streams the job's event log as SSE: full replay, then live tail,
/// closing after the terminal `done`/`failed` block.
fn events(
    scheduler: &Arc<Scheduler>,
    raw: &str,
    stream: &mut TcpStream,
) -> Result<Response, ApiError> {
    use std::io::Write as _;
    let job = lookup(scheduler, raw)?;
    begin_sse(stream).map_err(|e| ApiError::new(500, "io_error", e.to_string()))?;
    let mut cursor = 0usize;
    loop {
        let (blocks, closed) = job.hub.wait_from(cursor);
        cursor += blocks.len();
        for block in &blocks {
            if stream.write_all(block.as_bytes()).is_err() {
                // Subscriber went away; the job keeps running.
                return Ok(Response::Streamed);
            }
        }
        let _ = stream.flush();
        // Once closed, the next wait returns instantly: loop until the
        // replay catches the terminal event, then end the stream.
        if closed && blocks.is_empty() {
            return Ok(Response::Streamed);
        }
    }
}
