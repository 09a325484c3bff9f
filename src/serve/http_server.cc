#include "serve/http_server.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "config/json.hh"
#include "serve/errors.hh"
#include "util/fault_injection.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace madmax
{

namespace
{

using Clock = std::chrono::steady_clock;

/// @name Syscall shims with fault points
/// Chaos scenarios inject EMFILE storms, connection resets, and short
/// writes exactly where the kernel would produce them, so the
/// recovery paths under test are the real ones. With no script armed
/// each shim is the raw syscall plus one relaxed atomic load.
/// @{

int
xaccept4(int fd, int flags)
{
    if (int f = faultPoint("http.accept"); f > 0) {
        errno = f;
        return -1;
    }
    return ::accept4(fd, nullptr, nullptr, flags);
}

ssize_t
xrecv(int fd, void *buf, size_t len)
{
    if (int f = faultPoint("http.read"); f > 0) {
        errno = f;
        return -1;
    }
    return ::recv(fd, buf, len, 0);
}

ssize_t
xsend(int fd, const void *buf, size_t len)
{
    int f = faultPoint("http.write");
    if (f > 0) {
        errno = f;
        return -1;
    }
    if (f == FaultInjection::kShortIo && len > 1)
        len = 1; // Short write: the flush loop must resume correctly.
    return ::send(fd, buf, len, MSG_NOSIGNAL);
}

int
xepoll_ctl(int epfd, int op, int fd, epoll_event *ev)
{
    if (int f = faultPoint("http.epoll_ctl"); f > 0) {
        errno = f;
        return -1;
    }
    return ::epoll_ctl(epfd, op, fd, ev);
}

/// @}

/** Inbound-buffer cap while a handler is busy: pipelined requests
 *  beyond it pause reading (TCP backpressure) instead of buffering
 *  without bound. */
constexpr size_t kPipelineSlack = 4096;

/** Bytes a draining close will discard before giving up. */
constexpr size_t kDrainCap = size_t{4} << 20;

std::string
lowered(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

std::string
trimmed(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/** Serialize a response with the framing headers the server owns. */
std::string
renderResponse(const HttpResponse &resp, bool keepAlive)
{
    std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
        statusReason(resp.status) + "\r\n";
    out += "Content-Type: " + resp.contentType + "\r\n";
    out += "Content-Length: " + std::to_string(resp.body.size()) +
        "\r\n";
    for (const auto &[name, value] : resp.headers)
        out += name + ": " + value + "\r\n";
    out += keepAlive ? "Connection: keep-alive\r\n\r\n"
                     : "Connection: close\r\n\r\n";
    out += resp.body;
    return out;
}

/** Does the client forbid reuse (Connection: close, or HTTP/1.0
 *  without an explicit keep-alive)? */
bool
requestWantsClose(const HttpRequest &req)
{
    auto it = req.headers.find("connection");
    std::string value =
        it == req.headers.end() ? "" : lowered(it->second);
    if (value.find("close") != std::string::npos)
        return true;
    if (req.version == "HTTP/1.0")
        return value.find("keep-alive") == std::string::npos;
    return false;
}

enum class Parse
{
    NeedMore, ///< Incomplete; keep the buffer, wait for bytes.
    Ok,       ///< One full request parsed; @p consumed bytes used.
    Error,    ///< Protocol violation; @p error is the response.
};

/**
 * Try to parse one complete request from the front of @p buf.
 * Incremental: called every time bytes arrive, it re-scans for the
 * header terminator (CRLFCRLF, or bare LFLF for sloppy clients —
 * checked together so LF-only clients are served promptly instead of
 * idling into a timeout) and only commits once the full body is
 * buffered. @p expectContinue is set as soon as the header block
 * carries `Expect: 100-continue`, even while the body is still
 * incomplete, so the caller can unblock a waiting curl.
 */
Parse
tryParseRequest(const std::string &buf, const HttpServerOptions &opt,
                HttpRequest &req, size_t &consumed,
                HttpResponse &error, bool &expectContinue)
{
    size_t headerEnd = buf.find("\r\n\r\n");
    size_t bodyStart = headerEnd + 4;
    size_t lfOnly = buf.find("\n\n");
    if (lfOnly != std::string::npos &&
        (headerEnd == std::string::npos || lfOnly < headerEnd)) {
        headerEnd = lfOnly;
        bodyStart = lfOnly + 2;
    }
    if (headerEnd == std::string::npos) {
        if (buf.size() > opt.maxHeaderBytes) {
            error = errorResponse(
                431, "bad_request",
                "malformed or oversized request header");
            return Parse::Error;
        }
        return Parse::NeedMore;
    }
    if (headerEnd > opt.maxHeaderBytes) {
        error = errorResponse(431, "bad_request",
                              "malformed or oversized request header");
        return Parse::Error;
    }

    req = HttpRequest{};
    std::string head = buf.substr(0, headerEnd);
    std::vector<std::string> lines;
    size_t start = 0;
    while (start <= head.size()) {
        size_t nl = head.find('\n', start);
        if (nl == std::string::npos) {
            lines.push_back(head.substr(start));
            break;
        }
        lines.push_back(head.substr(start, nl - start));
        start = nl + 1;
    }
    for (std::string &line : lines)
        if (!line.empty() && line.back() == '\r')
            line.pop_back();

    // Request line: METHOD SP TARGET SP HTTP/1.x
    size_t sp1 =
        lines.empty() ? std::string::npos : lines[0].find(' ');
    size_t sp2 = sp1 == std::string::npos
        ? std::string::npos
        : lines[0].find(' ', sp1 + 1);
    if (sp2 == std::string::npos ||
        lines[0].compare(sp2 + 1, 7, "HTTP/1.") != 0) {
        error = errorResponse(400, "bad_request",
                              "malformed request line");
        return Parse::Error;
    }
    req.method = lines[0].substr(0, sp1);
    req.target = lines[0].substr(sp1 + 1, sp2 - sp1 - 1);
    req.version = lines[0].substr(sp2 + 1);
    size_t q = req.target.find('?');
    if (q != std::string::npos)
        req.target.resize(q);

    bool duplicateContentLength = false;
    for (size_t i = 1; i < lines.size(); ++i) {
        if (lines[i].empty())
            continue;
        size_t colon = lines[i].find(':');
        if (colon == std::string::npos)
            continue; // Ignore malformed header lines.
        std::string key = lowered(trimmed(lines[i].substr(0, colon)));
        // Repeated Content-Length is the classic request-smuggling
        // precondition (RFC 7230 §3.3.2): two hops disagreeing on
        // framing. Reject rather than last-wins.
        if (key == "content-length" && req.headers.count(key))
            duplicateContentLength = true;
        req.headers[key] = trimmed(lines[i].substr(colon + 1));
    }
    if (duplicateContentLength) {
        error = errorResponse(400, "bad_request",
                              "repeated Content-Length header");
        return Parse::Error;
    }

    // Only Content-Length framing is implemented. A chunked body must
    // be refused explicitly: treating it as zero-length would leave
    // the chunk bytes in the buffer to be misparsed as the next
    // pipelined request.
    auto te = req.headers.find("transfer-encoding");
    if (te != req.headers.end() &&
        lowered(te->second) != "identity") {
        error = errorResponse(501, "not_implemented",
                              "Transfer-Encoding is not supported; "
                              "send a Content-Length body");
        return Parse::Error;
    }

    size_t contentLength = 0;
    auto cl = req.headers.find("content-length");
    if (cl != req.headers.end()) {
        // Digits only, fully consumed: "12abc" must be rejected, not
        // truncated into a misframed 12-byte body.
        bool ok = !cl->second.empty() &&
            cl->second.find_first_not_of("0123456789") ==
                std::string::npos;
        if (ok) {
            try {
                contentLength = std::stoul(cl->second);
            } catch (const std::exception &) {
                ok = false; // Overflow.
            }
        }
        if (!ok) {
            error = errorResponse(400, "bad_request",
                                  "invalid Content-Length");
            return Parse::Error;
        }
    }
    if (contentLength > opt.maxBodyBytes) {
        error = errorResponse(
            413, "payload_too_large",
            "request body exceeds " +
                std::to_string(opt.maxBodyBytes) + " bytes");
        return Parse::Error;
    }

    auto expect = req.headers.find("expect");
    if (expect != req.headers.end() &&
        lowered(expect->second) == "100-continue")
        expectContinue = true;

    if (buf.size() - bodyStart < contentLength)
        return Parse::NeedMore;

    req.body = buf.substr(bodyStart, contentLength);
    consumed = bodyStart + contentLength;
    return Parse::Ok;
}

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

} // namespace

const char *
statusReason(int status)
{
    switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
    }
}

HttpResponse
errorResponse(int status, const std::string &code,
              const std::string &message)
{
    JsonValue err;
    err.set("code", code);
    err.set("message", message);
    JsonValue doc;
    doc.set("error", std::move(err));
    HttpResponse resp;
    resp.status = status;
    resp.body = doc.dump(2) + "\n";
    return resp;
}

/**
 * Per-connection state machine. Owned and mutated exclusively by the
 * I/O thread; workers refer to a connection only by id.
 */
struct HttpServer::Conn
{
    int fd = -1;
    uint64_t id = 0;

    std::string in;  ///< Received, not yet parsed.
    std::string out; ///< Rendered, not yet written.
    size_t outOff = 0;

    bool handlerBusy = false;    ///< One request dispatched, awaiting
                                 ///< its completion.
    bool wantClose = false;      ///< Client asked for Connection: close.
    bool closeAfterWrite = false;
    bool draining = false;       ///< Half-closed, discarding inbound.
    bool wantWrite = false;      ///< EPOLLOUT armed.
    bool requestActive = false;  ///< Mid-request (slow-loris deadline).
    bool sentContinue = false;   ///< 100 Continue sent for this request.
    bool peerClosed = false;     ///< recv() saw EOF.
    bool readPaused = false;     ///< Pipeline buffer full; backpressure.

    int served = 0; ///< Requests answered on this connection.
    size_t drained = 0;
    Clock::time_point deadline;
};

HttpServer::HttpServer(HttpHandler handler, HttpServerOptions options)
    : handler_(std::move(handler)), options_(options)
{
    if (!handler_)
        fatal("HttpServer: null handler");
    if (options_.port < 0 || options_.port > 65535)
        fatal("HttpServer: port must be in [0, 65535]");
    if (options_.workers < 1)
        fatal("HttpServer: workers must be >= 1");
    if (options_.queueDepth < 1)
        fatal("HttpServer: queueDepth must be >= 1");
    if (options_.idleTimeoutSeconds < 1)
        fatal("HttpServer: idleTimeoutSeconds must be >= 1");
    if (options_.requestDeadlineSeconds < 1)
        fatal("HttpServer: requestDeadlineSeconds must be >= 1");
    if (options_.keepAliveMaxRequests < 1)
        fatal("HttpServer: keepAliveMaxRequests must be >= 1");
}

HttpServer::~HttpServer()
{
    stop();
}

void
HttpServer::start()
{
    if (running_.load())
        fatal("HttpServer: already started");
    stopping_.store(false);
    inFlight_.store(0);

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("HttpServer: socket(): " +
              std::string(std::strerror(errno)));
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.port));
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        std::string err = std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        fatal("HttpServer: cannot bind 127.0.0.1:" +
              std::to_string(options_.port) + ": " + err);
    }
    if (::listen(listenFd_, 512) != 0) {
        std::string err = std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        fatal("HttpServer: listen(): " + err);
    }
    setNonBlocking(listenFd_);

    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                  &len);
    port_ = ntohs(addr.sin_port);

    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    wakeFd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (epollFd_ < 0 || wakeFd_ < 0) {
        std::string err = std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        if (epollFd_ >= 0)
            ::close(epollFd_);
        if (wakeFd_ >= 0)
            ::close(wakeFd_);
        epollFd_ = wakeFd_ = -1;
        fatal("HttpServer: epoll/eventfd: " + err);
    }

    // Reserve the emergency fd up front, while descriptors are still
    // plentiful (see emergencyReject). Failing to open it is fine —
    // the EMFILE path then degrades to backlog-until-timeout.
    emergencyFd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);

    // ids 0/1 are reserved for the listen socket and the wake fd;
    // connections start at 16.
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = 0;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev);
    ev.events = EPOLLIN;
    ev.data.u64 = 1;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev);

    workers_ = std::make_unique<ThreadPool>(options_.workers);
    running_.store(true);
    io_ = std::thread(&HttpServer::ioLoop, this);
}

void
HttpServer::stop()
{
    if (!running_.load())
        return;
    stopping_.store(true);
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(wakeFd_, &one, sizeof(one));
    if (io_.joinable())
        io_.join();
    // Drains the pool: every dispatched request finishes before the
    // wake fd it signals is closed.
    workers_.reset();

    ::close(epollFd_);
    ::close(wakeFd_);
    epollFd_ = wakeFd_ = -1;
    if (emergencyFd_ >= 0) {
        ::close(emergencyFd_);
        emergencyFd_ = -1;
    }
    conns_.clear();
    completions_.clear();
    running_.store(false);
}

HttpServerStats
HttpServer::stats() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    return stats_;
}

void
HttpServer::bumpStat(long HttpServerStats::*field)
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    ++(stats_.*field);
}

void
HttpServer::runHandler(uint64_t connId, const HttpRequest &request) noexcept
{
    HttpResponse resp;
    try {
        resp = handler_(request);
    } catch (...) {
        // One mapping for every exception class the handler can
        // leak (serve/errors.hh) — ConfigError -> 400, bad_alloc
        // -> 503 resource_exhausted, DeadlineError -> 504, ...
        resp = errorFromCurrentException();
    }
    // noexcept: an exception past this point would lose the
    // completion, leaking inFlight_ and hanging the connection, so it
    // terminates instead of being swallowed by the pool.
    {
        std::lock_guard<std::mutex> lock(completionMutex_);
        completions_.push_back(Completion{connId, std::move(resp)});
    }
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wakeFd_, &one, sizeof(one));
}

void
HttpServer::setWantWrite(Conn &conn, bool want)
{
    if (conn.wantWrite == want)
        return;
    conn.wantWrite = want;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET | (want ? EPOLLOUT : 0u);
    ev.data.u64 = conn.id;
    // A failing MOD (injectable via http.epoll_ctl) leaves the conn
    // with stale interest; it is not wedged forever — the idle /
    // request deadline sweep still evicts it.
    xepoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void
HttpServer::closeConn(Conn &conn)
{
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conns_.erase(conn.id); // Invalidates conn.
}

void
HttpServer::queueResponse(Conn &conn, const HttpResponse &resp,
                          bool keepAlive)
{
    conn.out += renderResponse(resp, keepAlive);
}

/** Flush pending output; arm EPOLLOUT on a partial write. Returns
 *  false when the connection was closed. */
bool
HttpServer::flushWrite(Conn &conn)
{
    while (conn.outOff < conn.out.size()) {
        ssize_t n = xsend(conn.fd, conn.out.data() + conn.outOff,
                          conn.out.size() - conn.outOff);
        if (n > 0) {
            conn.outOff += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (!conn.wantWrite)
                bumpStat(&HttpServerStats::partialWrites);
            setWantWrite(conn, true);
            return true; // Resumed by EPOLLOUT.
        }
        closeConn(conn); // Peer is gone; nothing useful to do.
        return false;
    }
    conn.out.clear();
    conn.outOff = 0;
    setWantWrite(conn, false);
    if (conn.closeAfterWrite)
        return startDrain(conn);
    return true;
}

/**
 * Begin a drained close: everything we wanted to say is flushed, so
 * half-close the write side and discard whatever the client is still
 * sending until EOF (bounded by kDrainCap and the request deadline).
 * Closing with unread inbound bytes pending would trigger a TCP RST
 * that can destroy the just-sent response before the client reads it
 * — the classic lost-error-response failure this path exists to
 * prevent.
 */
bool
HttpServer::startDrain(Conn &conn)
{
    if (conn.peerClosed) {
        closeConn(conn);
        return false;
    }
    conn.draining = true;
    conn.in.clear();
    ::shutdown(conn.fd, SHUT_WR);
    conn.deadline = Clock::now() +
        std::chrono::seconds(options_.requestDeadlineSeconds);
    // Eat anything already buffered; ET means no event will re-fire
    // for bytes that arrived before the shutdown.
    return onReadable(conn);
}

/** Queue an error response and schedule the drained close. Every
 *  error path funnels here, so `Connection: close` + drain is a
 *  structural property rather than a per-call-site convention. */
bool
HttpServer::respondError(Conn &conn, const HttpResponse &resp)
{
    conn.closeAfterWrite = true;
    queueResponse(conn, resp, /*keepAlive=*/false);
    return flushWrite(conn);
}

/**
 * Parse-and-dispatch pump: consume as many complete requests from the
 * inbound buffer as the one-in-flight-per-connection rule allows.
 * Runs after every read and after every completion, which is what
 * makes pipelining work under edge-triggered epoll — buffered bytes
 * never generate another event, so the pump must be re-entered from
 * the completion path, not the socket.
 */
bool
HttpServer::pump(Conn &conn)
{
    while (!conn.handlerBusy && !conn.draining &&
           !conn.closeAfterWrite) {
        HttpRequest req;
        HttpResponse error;
        size_t consumed = 0;
        bool expectContinue = false;
        Parse st = tryParseRequest(conn.in, options_, req, consumed,
                                   error, expectContinue);
        if (st == Parse::NeedMore) {
            if (!conn.in.empty() && !conn.requestActive) {
                // First bytes of a new request start its read
                // deadline (slow-loris bound).
                conn.requestActive = true;
                conn.deadline = Clock::now() +
                    std::chrono::seconds(
                        options_.requestDeadlineSeconds);
            }
            if (expectContinue && !conn.sentContinue) {
                // curl stalls its body until the server blesses it;
                // every real evaluate request (three inlined config
                // objects) crosses curl's threshold.
                conn.sentContinue = true;
                conn.out += "HTTP/1.1 100 Continue\r\n\r\n";
                return flushWrite(conn);
            }
            if (conn.peerClosed) {
                if (!conn.in.empty())
                    bumpStat(&HttpServerStats::badRequests);
                closeConn(conn); // Truncated request or clean EOF.
                return false;
            }
            return true;
        }
        if (st == Parse::Error) {
            bumpStat(&HttpServerStats::badRequests);
            return respondError(conn, error);
        }

        conn.in.erase(0, consumed);
        conn.requestActive = false;
        if (expectContinue && !conn.sentContinue) {
            // Body arrived in one shot; still honor the Expect so
            // strict clients see the interim response they asked for.
            conn.out += "HTTP/1.1 100 Continue\r\n\r\n";
        }
        conn.sentContinue = false;
        if (conn.served > 0)
            bumpStat(&HttpServerStats::keepAliveReuses);
        if (!conn.in.empty())
            bumpStat(&HttpServerStats::pipelinedRequests);
        conn.wantClose = requestWantsClose(req);

        // Tiered admission: shed the expensive tier well before the
        // cheap one, so health probes and cached hits survive a flood
        // of cold evaluations (the binary all-or-nothing 503 this
        // replaces shed a health check as readily as a cold eval).
        RequestCost cost = options_.classifier
            ? options_.classifier(req)
            : RequestCost::Cached;
        long load = inFlight_.load();
        long depth = static_cast<long>(options_.queueDepth);
        bool shed = false;
        if (cost == RequestCost::Expensive && load >= depth * 3 / 4) {
            bumpStat(&HttpServerStats::shedExpensive);
            shed = true;
        } else if (cost == RequestCost::Cached && load >= depth) {
            bumpStat(&HttpServerStats::shedCached);
            shed = true;
        }
        if (shed) {
            bumpStat(&HttpServerStats::rejectedQueueFull);
            HttpResponse resp = errorResponse(
                503, "overloaded",
                cost == RequestCost::Expensive
                    ? "shedding cold evaluations under load, retry"
                    : "request queue is full, retry");
            resp.headers["Retry-After"] = "1";
            return respondError(conn, resp);
        }

        conn.handlerBusy = true;
        conn.deadline = Clock::now() +
            std::chrono::seconds(options_.idleTimeoutSeconds);
        inFlight_.fetch_add(1);
        workers_->submit(
            [this, id = conn.id, req = std::move(req)]() noexcept {
                runHandler(id, req);
            });
        return true;
    }
    return true;
}

/** Drain the socket (edge-triggered: read until EAGAIN). Returns
 *  false when the connection was closed. */
bool
HttpServer::onReadable(Conn &conn)
{
    char chunk[16384];
    while (true) {
        if (conn.readPaused)
            break;
        ssize_t n = xrecv(conn.fd, chunk, sizeof(chunk));
        if (n > 0) {
            if (conn.draining) {
                conn.drained += static_cast<size_t>(n);
                if (conn.drained > kDrainCap) {
                    closeConn(conn);
                    return false;
                }
                continue;
            }
            conn.in.append(chunk, static_cast<size_t>(n));
            if (conn.handlerBusy &&
                conn.in.size() > options_.maxHeaderBytes +
                        options_.maxBodyBytes + kPipelineSlack) {
                // A pipelining flood behind a slow request: stop
                // reading (TCP backpressure) instead of buffering
                // the client's whole send queue in memory.
                conn.readPaused = true;
                break;
            }
            continue;
        }
        if (n == 0) {
            conn.peerClosed = true;
            if (conn.draining ||
                (!conn.handlerBusy && conn.out.empty() &&
                 conn.in.empty())) {
                closeConn(conn);
                return false;
            }
            break; // Half-close: finish the in-flight response.
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        closeConn(conn);
        return false;
    }
    if (conn.draining)
        return true;
    bool alive = pump(conn);
    if (alive && !conns_.count(conn.id))
        return false; // Defensive; pump reports closes itself.
    if (alive && !conn.handlerBusy && !conn.requestActive &&
        !conn.draining && !conn.closeAfterWrite)
        conn.deadline = Clock::now() +
            std::chrono::seconds(options_.idleTimeoutSeconds);
    return alive;
}

bool
HttpServer::onWritable(Conn &conn)
{
    return flushWrite(conn);
}

bool
HttpServer::emergencyReject()
{
    bumpStat(&HttpServerStats::fdExhausted);
    if (emergencyFd_ >= 0) {
        ::close(emergencyFd_);
        emergencyFd_ = -1;
    }
    // The freed descriptor slot lets this accept succeed where the
    // caller's just failed; the client gets a prompt 503 instead of
    // hanging in the backlog until its own timeout.
    bool rejected = false;
    int fd = ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) {
        HttpResponse resp =
            makeError(ServeError::FdExhausted,
                      "server is out of file descriptors, retry");
        resp.headers["Retry-After"] = "1";
        std::string wire = renderResponse(resp, /*keepAlive=*/false);
        // Blocking best-effort send: the response is a few hundred
        // bytes, far under any socket buffer.
        [[maybe_unused]] ssize_t n =
            ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
        // Count before close(): the client may read EOF and sample
        // the stats the moment the socket closes.
        bumpStat(&HttpServerStats::fdRejects);
        ::close(fd);
        rejected = true;
    }
    emergencyFd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    return rejected;
}

void
HttpServer::acceptReady()
{
    while (true) {
        int fd = xaccept4(listenFd_, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EMFILE || errno == ENFILE) {
                // Out of descriptors: burn the reserve to
                // accept-then-reject one waiting client, then keep
                // draining the backlog (each pass rejects one more;
                // an empty backlog ends the pass, so a persistent
                // EMFILE cannot spin the loop).
                if (!emergencyReject())
                    return;
                continue;
            }
            if (errno == ECONNABORTED || errno == EINTR)
                continue; // Transient per-connection hiccup.
            // EAGAIN: drained. Anything else: give up this tick; the
            // loop's next event retries.
            return;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        bumpStat(&HttpServerStats::accepted);

        uint64_t id = nextConnId_++;
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conn->id = id;
        conn->deadline = Clock::now() +
            std::chrono::seconds(options_.idleTimeoutSeconds);
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLET;
        ev.data.u64 = id;
        if (xepoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
            ::close(fd);
            continue;
        }
        Conn &ref = *conn;
        conns_.emplace(id, std::move(conn));
        // Bytes may already be buffered (loopback clients usually
        // send the whole request before accept returns) and ET will
        // not re-signal them.
        onReadable(ref);
    }
}

void
HttpServer::processCompletions()
{
    std::vector<Completion> batch;
    {
        std::lock_guard<std::mutex> lock(completionMutex_);
        batch.swap(completions_);
    }
    for (Completion &done : batch) {
        inFlight_.fetch_sub(1);
        auto it = conns_.find(done.connId);
        if (it == conns_.end())
            continue; // Connection died while the handler ran.
        Conn &conn = *it->second;
        conn.handlerBusy = false;
        ++conn.served;
        bumpStat(&HttpServerStats::served);

        // Keep-alive decision: the client's wish, the request cap,
        // shutdown, a half-closed peer — and, structurally, every
        // error response closes (and drains) the connection.
        bool close = conn.wantClose || conn.peerClosed ||
            done.response.status >= 400 ||
            conn.served >= options_.keepAliveMaxRequests ||
            stopping_.load();
        if (close) {
            conn.closeAfterWrite = true;
            queueResponse(conn, done.response, /*keepAlive=*/false);
            flushWrite(conn);
            continue;
        }
        queueResponse(conn, done.response, /*keepAlive=*/true);
        if (!flushWrite(conn))
            continue;
        if (conn.readPaused) {
            conn.readPaused = false;
            if (!onReadable(conn)) // Re-read; ET events were consumed.
                continue;
        } else {
            conn.deadline = Clock::now() +
                std::chrono::seconds(options_.idleTimeoutSeconds);
            pump(conn); // Next pipelined request, if buffered.
        }
    }
}

void
HttpServer::sweepDeadlines()
{
    Clock::time_point now = Clock::now();
    std::vector<uint64_t> expired;
    for (auto &[id, conn] : conns_) {
        if (conn->handlerBusy || now < conn->deadline)
            continue;
        expired.push_back(id);
    }
    for (uint64_t id : expired) {
        auto it = conns_.find(id);
        if (it == conns_.end())
            continue;
        Conn &conn = *it->second;
        if (conn.draining || conn.closeAfterWrite) {
            // Client never finished reading its (error) response.
            bumpStat(&HttpServerStats::deadlineClosed);
        } else if (conn.requestActive) {
            // Slow loris: mid-request past the read deadline.
            bumpStat(&HttpServerStats::deadlineClosed);
            bumpStat(&HttpServerStats::badRequests);
        } else {
            bumpStat(&HttpServerStats::idleClosed);
        }
        closeConn(conn);
    }
}

void
HttpServer::ioLoop()
{
    constexpr int kMaxEvents = 128;
    epoll_event events[kMaxEvents];
    bool listenOpen = true;
    Clock::time_point stopDeadline{};

    while (true) {
        if (stopping_.load() && listenOpen) {
            // Stop admitting, but finish everything dispatched:
            // accepted requests are part of the contract.
            ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
            ::close(listenFd_);
            listenFd_ = -1;
            listenOpen = false;
            stopDeadline =
                Clock::now() + std::chrono::seconds(5);
        }
        if (!listenOpen) {
            bool idle = inFlight_.load() == 0;
            if (idle) {
                for (auto &[id, conn] : conns_)
                    if (!conn->out.empty() &&
                        conn->outOff < conn->out.size())
                        idle = false;
            }
            if (idle || Clock::now() >= stopDeadline)
                break;
        }

        int n = ::epoll_wait(epollFd_, events, kMaxEvents, 100);
        if (n < 0 && errno != EINTR)
            break;
        for (int i = 0; i < n; ++i) {
            uint64_t id = events[i].data.u64;
            if (id == 0) {
                if (listenOpen)
                    acceptReady();
                continue;
            }
            if (id == 1) {
                uint64_t count = 0;
                while (::read(wakeFd_, &count, sizeof(count)) > 0) {
                }
                continue;
            }
            auto it = conns_.find(id);
            if (it == conns_.end())
                continue;
            Conn &conn = *it->second;
            if (events[i].events & (EPOLLERR | EPOLLHUP)) {
                if (conn.handlerBusy) {
                    conn.peerClosed = true; // Reap at completion.
                    continue;
                }
                closeConn(conn);
                continue;
            }
            if (events[i].events & EPOLLOUT) {
                if (!onWritable(conn))
                    continue;
                if (!conns_.count(id))
                    continue;
            }
            if (events[i].events & EPOLLIN)
                onReadable(conn);
        }
        processCompletions();
        sweepDeadlines();
    }

    // Shutdown: flush what we can, then close everything.
    processCompletions();
    for (auto &[id, conn] : conns_) {
        ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, conn->fd, nullptr);
        ::close(conn->fd);
    }
    conns_.clear();
    if (listenOpen) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
}

} // namespace madmax
