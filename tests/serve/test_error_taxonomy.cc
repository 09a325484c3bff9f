/**
 * @file
 * Error-taxonomy wire-contract tests: every error body the serving
 * stack can emit, pinned byte for byte — the {"error": {code,
 * detail?, message}} shape, the exact machine codes of
 * serve/errors.hh, and the Retry-After headers on the retryable
 * 503s. These goldens are the compatibility contract clients
 * dispatch on; changing any of them is an API break.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "config/json.hh"
#include "serve/errors.hh"
#include "serve/http_server.hh"
#include "serve/service.hh"
#include "serve_test_util.hh"
#include "util/fault_injection.hh"
#include "util/logging.hh"

namespace madmax
{

using namespace serve_test;

namespace
{

HttpRequest
post(const std::string &path, const std::string &body)
{
    HttpRequest req;
    req.method = "POST";
    req.target = path;
    req.version = "HTTP/1.1";
    req.body = body;
    return req;
}

/** The exact two-field error body (dump(2) framing, sorted keys). */
std::string
goldenBody(const std::string &code, const std::string &message)
{
    return "{\n"
           "  \"error\": {\n"
           "    \"code\": \"" + code + "\",\n"
           "    \"message\": \"" + message + "\"\n"
           "  }\n"
           "}\n";
}

/** An EvalService tuned for error-path tests: serial engine,
 *  hair-trigger breaker. */
ServiceOptions
testServiceOptions()
{
    ServiceOptions o;
    o.jobs = 1;
    o.breakerFailureThreshold = 1;
    o.breakerOpenMillis = 1000;
    return o;
}

} // namespace

TEST(ErrorTaxonomy, SpecTablePinsEveryStatusAndCode)
{
    const struct
    {
        ServeError kind;
        int status;
        const char *code;
    } expected[] = {
        {ServeError::BadRequest, 400, "bad_request"},
        {ServeError::NotFound, 404, "not_found"},
        {ServeError::MethodNotAllowed, 405, "method_not_allowed"},
        {ServeError::PayloadTooLarge, 413, "payload_too_large"},
        {ServeError::HeaderTooLarge, 431, "bad_request"},
        {ServeError::Internal, 500, "internal"},
        {ServeError::EvalFailed, 500, "eval_failed"},
        {ServeError::NotImplemented, 501, "not_implemented"},
        {ServeError::Overloaded, 503, "overloaded"},
        {ServeError::ResourceExhausted, 503, "resource_exhausted"},
        {ServeError::FdExhausted, 503, "fd_exhausted"},
        {ServeError::CircuitOpen, 503, "circuit_open"},
        {ServeError::DeadlineExceeded, 504, "deadline_exceeded"},
    };
    for (const auto &e : expected) {
        EXPECT_EQ(serveErrorSpec(e.kind).status, e.status) << e.code;
        EXPECT_STREQ(serveErrorSpec(e.kind).code, e.code);
    }
}

TEST(ErrorTaxonomy, MakeErrorMatchesLegacyErrorResponseByteForByte)
{
    // The taxonomy renderer and the pre-taxonomy errorResponse() are
    // the same wire bytes — callers were migrated, clients see no
    // change.
    HttpResponse viaTaxonomy = makeError(ServeError::BadRequest, "x");
    HttpResponse viaLegacy = errorResponse(400, "bad_request", "x");
    EXPECT_EQ(viaTaxonomy.status, viaLegacy.status);
    EXPECT_EQ(viaTaxonomy.body, viaLegacy.body);
    EXPECT_EQ(viaTaxonomy.body, goldenBody("bad_request", "x"));
}

TEST(ErrorTaxonomy, DeadlineBodyCarriesPartialWorkDetail)
{
    HttpResponse resp;
    try {
        throw DeadlineError(12, "queued");
    } catch (...) {
        resp = errorFromCurrentException();
    }
    EXPECT_EQ(resp.status, 504);
    EXPECT_EQ(resp.body,
              "{\n"
              "  \"error\": {\n"
              "    \"code\": \"deadline_exceeded\",\n"
              "    \"detail\": {\n"
              "      \"stage\": \"queued\",\n"
              "      \"waited_ms\": 12\n"
              "    },\n"
              "    \"message\": \"request deadline exceeded after "
              "12 ms (queued)\"\n"
              "  }\n"
              "}\n");
}

TEST(ErrorTaxonomy, CircuitOpenBodyCarriesRetryAfter)
{
    HttpResponse resp;
    try {
        throw CircuitOpenError(3);
    } catch (...) {
        resp = errorFromCurrentException();
    }
    EXPECT_EQ(resp.status, 503);
    EXPECT_EQ(resp.headers.at("Retry-After"), "3");
    EXPECT_EQ(resp.body,
              goldenBody("circuit_open",
                         "circuit breaker is open for this "
                         "configuration; retry in 3 s"));
}

TEST(ErrorTaxonomy, ParseErrorBodyIs400BadRequest)
{
    // The message is the JSON parser's, captured from the source of
    // truth rather than duplicated here; the golden pins the mapping
    // and the rendering around it.
    std::string parseMessage;
    try {
        JsonValue::parse("this is not json");
        FAIL() << "parse must reject";
    } catch (const ConfigError &e) {
        parseMessage = e.what();
    }
    EvalService service(testServiceOptions());
    HttpResponse resp =
        service.handle(post("/v1/evaluate", "this is not json"));
    EXPECT_EQ(resp.status, 400);
    EXPECT_EQ(resp.body, goldenBody("bad_request", parseMessage));
}

TEST(ErrorTaxonomy, RouterBodies404And405)
{
    EvalService service(testServiceOptions());
    HttpResponse notFound = service.handle(post("/v1/nope", "{}"));
    EXPECT_EQ(notFound.status, 404);
    EXPECT_EQ(notFound.body,
              goldenBody("not_found", "no such endpoint: /v1/nope"));

    HttpRequest wrongMethod;
    wrongMethod.method = "GET";
    wrongMethod.target = "/v1/evaluate";
    wrongMethod.version = "HTTP/1.1";
    HttpResponse r = service.handle(wrongMethod);
    EXPECT_EQ(r.status, 405);
    EXPECT_EQ(r.body,
              goldenBody("method_not_allowed",
                         "GET not supported on /v1/evaluate "
                         "(use POST)"));
}

TEST(ErrorTaxonomy, InjectedEvalFailureIs500EvalFailed)
{
    EvalService service(testServiceOptions());
    FaultScope scope("engine.eval=throw");
    HttpResponse resp =
        service.handle(post("/v1/evaluate", shippedTripleBody()));
    EXPECT_EQ(resp.status, 500);
    EXPECT_EQ(resp.body,
              goldenBody("eval_failed",
                         "injected fault at engine.eval"));
    EXPECT_EQ(service.stats().evalFailures, 1);
}

TEST(ErrorTaxonomy, InjectedConfigBadAllocIs503ResourceExhausted)
{
    EvalService service(testServiceOptions());
    FaultScope scope("config.load=badalloc");
    HttpResponse resp =
        service.handle(post("/v1/evaluate", shippedTripleBody()));
    EXPECT_EQ(resp.status, 503);
    EXPECT_EQ(resp.body,
              goldenBody("resource_exhausted",
                         "allocation failed while serving the "
                         "request"));
}

TEST(ErrorTaxonomy, InjectedConfigThrowIs500Internal)
{
    EvalService service(testServiceOptions());
    FaultScope scope("config.load=throw");
    HttpResponse resp =
        service.handle(post("/v1/evaluate", shippedTripleBody()));
    EXPECT_EQ(resp.status, 500);
    EXPECT_EQ(resp.body,
              goldenBody("internal",
                         "injected fault at config.load"));
}

TEST(ErrorTaxonomy, TrippedBreakerIs503CircuitOpen)
{
    EvalService service(testServiceOptions()); // threshold 1
    FaultScope scope("engine.eval=throw");
    HttpResponse first =
        service.handle(post("/v1/evaluate", shippedTripleBody()));
    ASSERT_EQ(first.status, 500); // the failure that trips the key

    HttpResponse second =
        service.handle(post("/v1/evaluate", shippedTripleBody()));
    EXPECT_EQ(second.status, 503);
    EXPECT_EQ(second.headers.at("Retry-After"), "1");
    EXPECT_EQ(second.body,
              goldenBody("circuit_open",
                         "circuit breaker is open for this "
                         "configuration; retry in 1 s"));
    EXPECT_EQ(service.breaker().stats().trips, 1);
    EXPECT_EQ(service.breaker().stats().rejects, 1);
}

TEST(ErrorTaxonomy, TransportBodies400And413And431And501)
{
    HttpServerOptions opts;
    opts.port = 0;
    HttpServer server(
        [](const HttpRequest &) { return HttpResponse{}; }, opts);
    server.start();
    const int port = server.port();

    std::string resp = httpExchange(port, "complete garbage\r\n\r\n");
    EXPECT_EQ(statusOf(resp), 400);
    EXPECT_EQ(bodyOf(resp),
              goldenBody("bad_request", "malformed request line"));

    resp = httpExchange(port,
                        "POST /x HTTP/1.1\r\nHost: h\r\n"
                        "Content-Length: 99999999\r\n\r\n");
    EXPECT_EQ(statusOf(resp), 413);
    EXPECT_EQ(bodyOf(resp),
              goldenBody("payload_too_large",
                         "request body exceeds 1048576 bytes"));

    resp = httpExchange(
        port, "GET /x HTTP/1.1\r\nBig: " +
                  std::string(17 << 10, 'x') + "\r\n\r\n");
    EXPECT_EQ(statusOf(resp), 431);
    EXPECT_EQ(bodyOf(resp),
              goldenBody("bad_request",
                         "malformed or oversized request header"));

    resp = httpExchange(port,
                        "POST /x HTTP/1.1\r\nHost: h\r\n"
                        "Transfer-Encoding: chunked\r\n\r\n");
    EXPECT_EQ(statusOf(resp), 501);
    EXPECT_EQ(bodyOf(resp),
              goldenBody("not_implemented",
                         "Transfer-Encoding is not supported; send "
                         "a Content-Length body"));
    server.stop();
}

TEST(ErrorTaxonomy, ShedExpensiveIs503OverloadedWithRetryAfter)
{
    // queueDepth 1 sheds tier-2 requests at load >= 0 — i.e. always —
    // making the overload path deterministic without real load.
    HttpServerOptions opts;
    opts.port = 0;
    opts.queueDepth = 1;
    opts.classifier = [](const HttpRequest &) {
        return RequestCost::Expensive;
    };
    HttpServer server(
        [](const HttpRequest &) { return HttpResponse{}; }, opts);
    server.start();
    std::string resp =
        httpExchange(server.port(), postRequest("/v1/evaluate", "{}"));
    EXPECT_EQ(statusOf(resp), 503);
    EXPECT_NE(resp.find("Retry-After: 1\r\n"), std::string::npos);
    EXPECT_EQ(bodyOf(resp),
              goldenBody("overloaded",
                         "shedding cold evaluations under load, "
                         "retry"));
    server.stop();
}

TEST(ErrorTaxonomy, AcceptEmfileIs503FdExhaustedViaEmergencyFd)
{
    HttpServerOptions opts;
    opts.port = 0;
    HttpServer server(
        [](const HttpRequest &) { return HttpResponse{}; }, opts);
    server.start();

    // The first accept(2) fails with an injected EMFILE; the server
    // burns its emergency fd to accept-then-reject this client with
    // a prompt, well-formed 503 instead of leaving it in the backlog.
    FaultScope scope("http.accept=errno:EMFILE@nth:1");
    std::string resp =
        httpExchange(server.port(), getRequest("/v1/health"));
    EXPECT_EQ(statusOf(resp), 503);
    EXPECT_NE(resp.find("Retry-After: 1\r\n"), std::string::npos);
    EXPECT_EQ(bodyOf(resp),
              goldenBody("fd_exhausted",
                         "server is out of file descriptors, retry"));
    EXPECT_EQ(server.stats().fdExhausted, 1);
    EXPECT_EQ(server.stats().fdRejects, 1);

    // The reserve was re-opened: the next connection serves normally.
    std::string ok =
        httpExchange(server.port(), getRequest("/v1/health"));
    EXPECT_EQ(statusOf(ok), 200);
    server.stop();
}

TEST(ErrorTaxonomy, DeadlineExceededEndToEndIs504)
{
    // The deadline gates WAITING, not evaluating: a lone request
    // becomes the batch leader and always runs to completion, so the
    // 504 path needs a request stuck behind a wedged leader. Thread A
    // wedges on an injected 800 ms evaluation; the main thread's
    // request then queues behind it and times out at its 50 ms
    // deadline. The waited time is wall clock, so the body is
    // asserted structurally here; DeadlineBodyCarriesPartialWorkDetail
    // pins the exact bytes.
    ServiceOptions sopts = testServiceOptions();
    sopts.requestTimeoutMillis = 50;
    sopts.breakerFailureThreshold = 1 << 20; // Keep the breaker out.
    EvalService service(sopts);
    FaultScope scope("engine.eval=delay:800000@nth:1");

    HttpResponse leaderResp;
    std::thread leader([&] {
        leaderResp =
            service.handle(post("/v1/evaluate", shippedTripleBody()));
    });
    // Let A reach the engine before queueing behind it.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));

    HttpResponse resp =
        service.handle(post("/v1/evaluate", shippedTripleBody()));
    EXPECT_EQ(resp.status, 504);
    JsonValue doc = JsonValue::parse(resp.body);
    EXPECT_EQ(doc.at("error").at("code").asString(),
              "deadline_exceeded");
    EXPECT_GE(doc.at("error").at("detail").at("waited_ms").asLong(), 50);
    EXPECT_EQ(doc.at("error").at("detail").at("stage").asString(),
              "queued");
    EXPECT_EQ(service.dispatcher().stats().deadlineTimeouts, 1);

    leader.join();
    // The wedged leader itself still completed normally.
    EXPECT_EQ(leaderResp.status, 200);
}

} // namespace madmax
