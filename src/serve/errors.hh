#pragma once

/**
 * @file
 * Structured error taxonomy for the serving stack. Every error the API
 * can emit — transport rejections, unknown endpoints, handler failures,
 * degradation responses — is an enumerator here, mapped to its HTTP
 * status and stable machine-readable `code` in exactly one table, so
 * the wire contract ("error.code" in every error body) is enforced
 * structurally instead of by string literals scattered across
 * http_server.cc / service.cc catch sites.
 *
 * Wire shape (see errorResponse in http_server.hh):
 *
 *   {"error": {"code": "<machine>", "detail": {...}?, "message": "<human>"}}
 *
 * The optional `detail` object carries partial-work accounting (e.g. a
 * 504's waited_ms + stage) and is omitted entirely when empty, keeping
 * the historical two-field bodies byte-identical.
 */

#include <stdexcept>
#include <string>

#include "config/json.hh"
#include "serve/http_server.hh"

namespace madmax
{

/** Every error the serving API can put on the wire. */
enum class ServeError
{
    BadRequest,        ///< 400 bad_request — malformed request/config.
    NotFound,          ///< 404 not_found — no such endpoint.
    MethodNotAllowed,  ///< 405 method_not_allowed.
    PayloadTooLarge,   ///< 413 payload_too_large — body over cap.
    HeaderTooLarge,    ///< 431, wire code "bad_request" (kept stable
                       ///< from the pre-taxonomy server).
    Internal,          ///< 500 internal — unexpected handler failure.
    EvalFailed,        ///< 500 eval_failed — plan evaluation threw.
    NotImplemented,    ///< 501 not_implemented — e.g. chunked bodies.
    Overloaded,        ///< 503 overloaded — admission control shed.
    ResourceExhausted, ///< 503 resource_exhausted — allocation failed.
    FdExhausted,       ///< 503 fd_exhausted — accept hit EMFILE/ENFILE.
    CircuitOpen,       ///< 503 circuit_open — breaker fast-fail.
    DeadlineExceeded,  ///< 504 deadline_exceeded — request deadline.
};

/** Status + wire code for one taxonomy entry. */
struct ServeErrorSpec
{
    int status;
    const char *code;
};

/** The single status/code mapping table. */
const ServeErrorSpec &serveErrorSpec(ServeError kind);

/** Render a taxonomy error with the uniform JSON error shape. */
HttpResponse makeError(ServeError kind, const std::string &message);

/** As above with a `detail` object (partial-work accounting). A null
 *  detail is omitted from the body. */
HttpResponse makeError(ServeError kind, const std::string &message,
                       JsonValue detail);

/**
 * Map the in-flight exception (rethrown inside a catch block) to its
 * taxonomy response. This is the one place exception types turn into
 * wire errors; both the HTTP worker fallback and EvalService::handle
 * route through it.
 */
HttpResponse errorFromCurrentException();

/** Thrown by BatchDispatcher when a request's deadline expires while
 *  it is queued or mid-batch; maps to 504 deadline_exceeded with
 *  {stage, waited_ms} partial-work detail. */
class DeadlineError : public std::runtime_error
{
  public:
    DeadlineError(long waitedMillis, std::string stage);

    long waitedMillis;
    std::string stage; ///< "queued" or "evaluating".
};

/** Thrown by EvalService when the circuit breaker rejects a config
 *  fingerprint; maps to 503 circuit_open + Retry-After. */
class CircuitOpenError : public std::runtime_error
{
  public:
    explicit CircuitOpenError(long retryAfterSeconds);

    long retryAfterSeconds;
};

} // namespace madmax
