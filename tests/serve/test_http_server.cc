/**
 * @file
 * HttpServer transport tests: request parsing and its error paths
 * (malformed request line, oversized body/headers, bad
 * Content-Length), handler exception mapping, Expect: 100-continue,
 * concurrent connections, and lifecycle (port 0 allocation,
 * idempotent stop, draining dispatched requests on stop).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "serve/http_server.hh"
#include "serve_test_util.hh"
#include "util/logging.hh"

namespace madmax
{

using namespace serve_test;

namespace
{

/** A server echoing "method target|body" for any request. */
HttpResponse
echoHandler(const HttpRequest &req)
{
    HttpResponse resp;
    resp.body = req.method + " " + req.target + "|" + req.body;
    return resp;
}

} // namespace

TEST(HttpServer, PicksAFreePortAndEchoes)
{
    HttpServerOptions opts;
    opts.port = 0;
    HttpServer server(echoHandler, opts);
    server.start();
    ASSERT_GT(server.port(), 0);

    std::string resp =
        httpExchange(server.port(), postRequest("/echo", "hello"));
    EXPECT_EQ(statusOf(resp), 200);
    EXPECT_EQ(bodyOf(resp), "POST /echo|hello");
    EXPECT_NE(resp.find("Content-Length: 16\r\n"), std::string::npos);
    EXPECT_NE(resp.find("Connection: close\r\n"), std::string::npos);
    server.stop();
}

TEST(HttpServer, StripsQueryStringFromTarget)
{
    HttpServerOptions opts;
    opts.port = 0;
    HttpServer server(echoHandler, opts);
    server.start();
    std::string resp =
        httpExchange(server.port(), getRequest("/echo?x=1&y=2"));
    EXPECT_EQ(bodyOf(resp), "GET /echo|");
    server.stop();
}

TEST(HttpServer, MalformedRequestLineIs400)
{
    HttpServerOptions opts;
    opts.port = 0;
    HttpServer server(echoHandler, opts);
    server.start();
    std::string resp =
        httpExchange(server.port(), "complete garbage\r\n\r\n");
    EXPECT_EQ(statusOf(resp), 400);
    EXPECT_NE(bodyOf(resp).find("\"bad_request\""), std::string::npos);
    EXPECT_EQ(server.stats().badRequests, 1);
    server.stop();
}

TEST(HttpServer, InvalidContentLengthIs400)
{
    HttpServerOptions opts;
    opts.port = 0;
    HttpServer server(echoHandler, opts);
    server.start();
    std::string resp = httpExchange(
        server.port(),
        "POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
    EXPECT_EQ(statusOf(resp), 400);
    // Trailing garbage must be rejected too, not truncated into a
    // misframed body.
    resp = httpExchange(
        server.port(),
        "POST /x HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n"
        "0123456789ab");
    EXPECT_EQ(statusOf(resp), 400);
    // As must repeated Content-Length (request-smuggling framing
    // ambiguity), instead of last-wins.
    resp = httpExchange(
        server.port(),
        "POST /x HTTP/1.1\r\nContent-Length: 100\r\n"
        "Content-Length: 5\r\n\r\nhello");
    EXPECT_EQ(statusOf(resp), 400);
    EXPECT_NE(bodyOf(resp).find("repeated Content-Length"),
              std::string::npos);
    server.stop();
}

TEST(HttpServer, ServesBareLfClientsPromptly)
{
    // LF-only framing must be detected while reading, not only after
    // an idle/request deadline expires.
    HttpServerOptions opts;
    opts.port = 0;
    opts.idleTimeoutSeconds = 30; // Make a timeout-dependent pass hang.
    opts.requestDeadlineSeconds = 30;
    HttpServer server(echoHandler, opts);
    server.start();
    auto t0 = std::chrono::steady_clock::now();
    std::string resp = httpExchange(
        server.port(),
        "POST /lf HTTP/1.1\nConnection: close\nContent-Length: 2\n\nok");
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    EXPECT_EQ(statusOf(resp), 200);
    EXPECT_EQ(bodyOf(resp), "POST /lf|ok");
    EXPECT_LT(seconds, 5.0);
    server.stop();
}

TEST(HttpServer, OversizedBodyIs413)
{
    HttpServerOptions opts;
    opts.port = 0;
    opts.maxBodyBytes = 64;
    HttpServer server(echoHandler, opts);
    server.start();
    std::string resp = httpExchange(
        server.port(), postRequest("/x", std::string(1000, 'a')));
    EXPECT_EQ(statusOf(resp), 413);
    EXPECT_NE(bodyOf(resp).find("payload_too_large"),
              std::string::npos);
    server.stop();
}

TEST(HttpServer, OversizedHeadersAre431)
{
    HttpServerOptions opts;
    opts.port = 0;
    opts.maxHeaderBytes = 128;
    HttpServer server(echoHandler, opts);
    server.start();
    std::string resp = httpExchange(
        server.port(),
        "GET / HTTP/1.1\r\nX-Big: " + std::string(4096, 'h') +
            "\r\n\r\n");
    EXPECT_EQ(statusOf(resp), 431);
    server.stop();
}

TEST(HttpServer, ChunkedTransferEncodingIs501)
{
    // Only Content-Length framing is implemented; chunked bodies
    // must be refused explicitly, not parsed as empty.
    HttpServerOptions opts;
    opts.port = 0;
    HttpServer server(echoHandler, opts);
    server.start();
    std::string resp = httpExchange(
        server.port(),
        "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        "2\r\nok\r\n0\r\n\r\n");
    EXPECT_EQ(statusOf(resp), 501);
    EXPECT_NE(bodyOf(resp).find("not_implemented"),
              std::string::npos);
    server.stop();
}

TEST(HttpServer, MissingContentLengthMeansEmptyBody)
{
    HttpServerOptions opts;
    opts.port = 0;
    HttpServer server(echoHandler, opts);
    server.start();
    std::string resp = httpExchange(
        server.port(),
        "POST /x HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n"
        "ignored");
    EXPECT_EQ(statusOf(resp), 200);
    EXPECT_EQ(bodyOf(resp), "POST /x|");
    server.stop();
}

TEST(HttpServer, HonorsExpect100Continue)
{
    HttpServerOptions opts;
    opts.port = 0;
    HttpServer server(echoHandler, opts);
    server.start();
    std::string body = "curl-style";
    std::string resp = httpExchange(
        server.port(),
        "POST /x HTTP/1.1\r\nExpect: 100-continue\r\n"
        "Connection: close\r\n"
        "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" +
            body);
    EXPECT_EQ(resp.rfind("HTTP/1.1 100 Continue\r\n\r\n", 0), 0u);
    EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(resp.find("POST /x|curl-style"), std::string::npos);
    server.stop();
}

TEST(HttpServer, HandlerExceptionsMapTo400And500)
{
    HttpServerOptions opts;
    opts.port = 0;
    HttpServer server(
        [](const HttpRequest &r) -> HttpResponse {
            if (r.target == "/bad-config")
                fatal("you asked for it");
            throw std::runtime_error("not your fault");
        },
        opts);
    server.start();

    std::string resp =
        httpExchange(server.port(), getRequest("/bad-config"));
    EXPECT_EQ(statusOf(resp), 400);
    EXPECT_NE(bodyOf(resp).find("you asked for it"),
              std::string::npos);

    resp = httpExchange(server.port(), getRequest("/bug"));
    EXPECT_EQ(statusOf(resp), 500);
    EXPECT_NE(bodyOf(resp).find("\"internal\""), std::string::npos);
    server.stop();
}

TEST(HttpServer, ServesConcurrentClients)
{
    HttpServerOptions opts;
    opts.port = 0;
    opts.workers = 4;
    HttpServer server(echoHandler, opts);
    server.start();

    constexpr int kClients = 8;
    constexpr int kRequests = 10;
    std::atomic<int> ok{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int r = 0; r < kRequests; ++r) {
                std::string body =
                    "c" + std::to_string(c) + "r" + std::to_string(r);
                std::string resp = httpExchange(
                    server.port(), postRequest("/echo", body));
                if (statusOf(resp) == 200 &&
                    bodyOf(resp) == "POST /echo|" + body)
                    ++ok;
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(ok.load(), kClients * kRequests);
    EXPECT_GE(server.stats().served, long{kClients * kRequests});
    server.stop();
}

TEST(HttpServer, StopIsIdempotentAndRestartable)
{
    HttpServerOptions opts;
    opts.port = 0;
    HttpServer server(echoHandler, opts);
    server.stop(); // Before start: no-op.
    server.start();
    int first = server.port();
    EXPECT_EQ(statusOf(httpExchange(first, getRequest("/x"))), 200);
    server.stop();
    server.stop(); // Twice: no-op.
    server.start();
    EXPECT_EQ(statusOf(httpExchange(server.port(), getRequest("/x"))),
              200);
    server.stop();
}

TEST(HttpServer, StopFinishesDispatchedRequests)
{
    // stop() lands while a handler is still sleeping; it must not
    // return before that dispatched request has run to completion.
    std::atomic<bool> started{false};
    std::atomic<int> finished{0};
    HttpServerOptions opts;
    opts.port = 0;
    HttpServer server(
        [&](const HttpRequest &req) {
            started.store(true);
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
            finished.fetch_add(1);
            return echoHandler(req);
        },
        opts);
    server.start();
    std::string resp;
    std::thread client([&] {
        resp = httpExchange(server.port(), getRequest("/slow"));
    });
    while (!started.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server.stop();
    EXPECT_EQ(finished.load(), 1);
    client.join();
    EXPECT_EQ(statusOf(resp), 200);
    EXPECT_EQ(bodyOf(resp), "GET /slow|");
}

TEST(HttpServer, RejectsBadOptions)
{
    EXPECT_THROW(HttpServer(nullptr), ConfigError);
    HttpServerOptions opts;
    opts.port = 99999;
    EXPECT_THROW(HttpServer(echoHandler, opts), ConfigError);
    opts.port = 0;
    opts.workers = 0;
    EXPECT_THROW(HttpServer(echoHandler, opts), ConfigError);
}

} // namespace madmax
