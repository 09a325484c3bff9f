/**
 * @file
 * Embedded HTTP/1.1 server over an epoll edge-triggered event loop —
 * the transport under `madmax serve`. Deliberately dependency-free,
 * like the JSON parser it fronts: one I/O thread owns every
 * connection's read/write state machine (non-blocking sockets,
 * partial reads and writes, HTTP/1.1 keep-alive and pipelining, idle
 * timeouts, slow-loris request deadlines) and submits each fully
 * parsed request as a task to a ThreadPool of handler workers
 * (util/thread_pool.hh; FIFO, so the oldest request starts first).
 * Workers never touch a socket: a task runs the handler and posts the
 * response back to the loop through a completion queue (an eventfd
 * wake), so connection state needs no locking at all — it is only
 * ever mutated by the loop.
 *
 * Keep-alive semantics: HTTP/1.1 connections persist by default, up
 * to `keepAliveMaxRequests` requests per connection, and pipelined
 * requests buffered behind an in-flight one are answered in order
 * (one request per connection is dispatched at a time, which makes
 * response ordering structural rather than something to re-sort).
 * Every error response — transport (400/413/431/501), shed (503), or
 * handler (4xx/5xx) — carries `Connection: close` and is followed by
 * a drained shutdown: the server flushes the response, half-closes
 * the socket, and discards whatever the client was still sending
 * before closing, so the error bytes are never destroyed by a TCP
 * RST racing an unread inbound body.
 *
 * Admission control is tiered instead of binary: each request is
 * classified (via `HttpServerOptions::classifier`) into tier 0
 * (cheap — health checks, metrics scrapes; never shed), tier 1
 * (cached — answered from warm state), or tier 2 (expensive — cold
 * evaluations). As the in-flight handler load rises, tier 2 sheds
 * first (at 3/4 of `queueDepth`), then tier 1 (at `queueDepth`);
 * tier 0 always gets through, so load probes keep working while the
 * service refuses the work that actually costs something.
 */

#ifndef MADMAX_SERVE_HTTP_SERVER_HH
#define MADMAX_SERVE_HTTP_SERVER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace madmax
{

class ThreadPool;

/** One parsed request. Header names are lower-cased on parse. */
struct HttpRequest
{
    std::string method;  ///< "GET", "POST", ... (upper-case).
    std::string target;  ///< Path only; any "?query" is stripped.
    std::string version; ///< "HTTP/1.1".
    std::map<std::string, std::string> headers;
    std::string body;
};

/** One response. The server adds Content-Length and Connection. */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "application/json";
    std::string body;

    /** Extra headers beyond the framing ones the server owns
     *  (e.g. Retry-After on a 503). */
    std::map<std::string, std::string> headers;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest &)>;

/**
 * The API's uniform error shape, used by every rejection path
 * (transport and service alike):
 *
 *   {"error": {"code": "<machine-readable>", "message": "<human>"}}
 */
HttpResponse errorResponse(int status, const std::string &code,
                           const std::string &message);

/** Canonical reason phrase for the status codes the server emits. */
const char *statusReason(int status);

/** Admission tiers for load shedding (see HttpServerOptions). */
enum class RequestCost
{
    Cheap = 0,     ///< Health/metrics probes; never shed.
    Cached = 1,    ///< Served from warm state; shed last.
    Expensive = 2, ///< Cold evaluation; shed first.
};

/** Server construction knobs. */
struct HttpServerOptions
{
    /** TCP port to bind on loopback; 0 picks a free port (see
     *  HttpServer::port for the bound one). */
    int port = 8080;

    /** Handler worker threads (the event loop itself never runs a
     *  handler — a slow evaluation must not stall every socket). */
    int workers = 4;

    /** In-flight handler request cap, the admission-control pivot:
     *  tier-2 requests shed at 3/4 of it, tier-1 at it, tier-0
     *  never (see RequestCost). */
    size_t queueDepth = 64;

    /** Request-body cap; larger Content-Lengths are answered 413. */
    size_t maxBodyBytes = 1 << 20;

    /** Request-line + header cap; larger preambles are answered 431. */
    size_t maxHeaderBytes = 16 << 10;

    /** Keep-alive connections idle longer than this are evicted. */
    int idleTimeoutSeconds = 30;

    /** Whole-request read deadline, seconds: a client trickling one
     *  byte at a time (slow loris) is cut off this long after its
     *  request's first byte, no matter how alive the socket looks. */
    int requestDeadlineSeconds = 30;

    /** Requests served per connection before the server answers with
     *  `Connection: close` (bounds per-connection state lifetime). */
    int keepAliveMaxRequests = 1000;

    /**
     * Admission classifier mapping a parsed request to its shedding
     * tier. Called on the event loop, so it must be fast and
     * thread-safe; null means every request is tier Cached.
     */
    std::function<RequestCost(const HttpRequest &)> classifier;
};

/** Transport-level counters. `madmax serve` wires them into
 *  `GET /v1/stats` and `/v1/metrics` via
 *  EvalService::setTransportStatsProvider — transport rejections
 *  (400/413/431/503) never reach the service handler, so they are
 *  only observable here. */
struct HttpServerStats
{
    long accepted = 0;          ///< Connections taken off accept().
    long served = 0;            ///< Requests answered by the handler.
    long rejectedQueueFull = 0; ///< All 503 sheds (cold + cached).
    long badRequests = 0;       ///< Transport 400/413/431/501 + timeouts.

    long keepAliveReuses = 0; ///< Requests beyond a conn's first.
    long pipelinedRequests = 0; ///< Parsed while a response was pending.
    long shedExpensive = 0;     ///< Tier-2 503s (cold evaluations).
    long shedCached = 0;        ///< Tier-1 503s (full overload).
    long idleClosed = 0;        ///< Keep-alive conns evicted idle.
    long deadlineClosed = 0;    ///< Slow-loris request deadline cuts.
    long partialWrites = 0;     ///< Responses resumed after EAGAIN.

    long fdExhausted = 0; ///< accept() failures on EMFILE/ENFILE.
    long fdRejects = 0;   ///< Clients answered 503 fd_exhausted via
                          ///< the emergency fd (accept-then-reject).
};

/**
 * The listening server. start() binds, creates the handler pool and
 * spawns the event loop; stop() (idempotent, also run by the
 * destructor) joins the loop, which flushes pending responses, then
 * destroys the pool, which finishes every dispatched request. The
 * handler is called concurrently from multiple workers and must be
 * thread-safe. Handler exceptions are mapped to JSON errors:
 * ConfigError -> 400, anything else -> 500.
 */
class HttpServer
{
  public:
    HttpServer(HttpHandler handler, HttpServerOptions options = {});
    ~HttpServer();

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /** Bind 127.0.0.1:port, listen, spawn the loop + workers.
     *  @throws ConfigError if the socket cannot be bound. */
    void start();

    /** Shut down and join; safe to call twice or before start(). */
    void stop();

    /** Actually-bound port (resolves port 0), valid after start(). */
    int port() const { return port_; }

    bool running() const { return running_.load(); }

    HttpServerStats stats() const;

  private:
    struct Conn;

    /** One handler result handed back to the loop. */
    struct Completion
    {
        uint64_t connId;
        HttpResponse response;
    };

    void ioLoop();
    /** Run one dispatched request on a pool worker and post its
     *  completion to the loop. */
    void runHandler(uint64_t connId, const HttpRequest &request) noexcept;

    // Loop-side helpers; all return false when they closed the
    // connection (the caller's reference is dangling).
    bool onReadable(Conn &conn);
    bool onWritable(Conn &conn);
    bool pump(Conn &conn);
    bool flushWrite(Conn &conn);
    bool respondError(Conn &conn, const HttpResponse &resp);
    bool startDrain(Conn &conn);
    void queueResponse(Conn &conn, const HttpResponse &resp,
                       bool keepAlive);
    void acceptReady();
    void processCompletions();
    void sweepDeadlines();
    void closeConn(Conn &conn);
    void setWantWrite(Conn &conn, bool want);
    void bumpStat(long HttpServerStats::*field);

    /** Close the reserved fd, accept one waiting client, send it a
     *  synchronous 503 fd_exhausted, close it, re-reserve. Keeps
     *  clients from hanging to their own timeout when accept() hits
     *  EMFILE/ENFILE (see acceptReady). Returns true iff a client
     *  was actually rejected (false = backlog empty; stop looping). */
    bool emergencyReject();

    HttpHandler handler_;
    HttpServerOptions options_;

    int listenFd_ = -1;
    int epollFd_ = -1;
    int wakeFd_ = -1;
    /// Reserved "emergency fd" (an open /dev/null): on EMFILE/ENFILE
    /// it is closed to free one descriptor slot so the server can
    /// accept-then-reject a waiting client with 503 instead of
    /// leaving it to hang (satellite of the resilience layer).
    int emergencyFd_ = -1;
    int port_ = 0;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};

    std::thread io_;
    /// Handler workers: created by start() before the I/O thread,
    /// destroyed by stop() after it — that destruction drains and
    /// finishes every dispatched request.
    std::unique_ptr<ThreadPool> workers_;

    /// Connections, keyed by id (epoll events carry the id, not the
    /// fd, so a recycled fd can never be confused with a closed
    /// conn). Only the I/O thread touches this map or any Conn.
    std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
    uint64_t nextConnId_ = 16;

    /// Requests dispatched whose completion the loop has not yet
    /// processed; the admission-control load metric.
    std::atomic<long> inFlight_{0};

    std::mutex completionMutex_;
    std::vector<Completion> completions_;

    mutable std::mutex statsMutex_;
    HttpServerStats stats_;
};

} // namespace madmax

#endif // MADMAX_SERVE_HTTP_SERVER_HH
