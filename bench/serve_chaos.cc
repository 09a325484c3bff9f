/**
 * @file
 * Chaos soak for the resident serving stack: the full EvalService +
 * HttpServer pipeline under a seeded multi-point fault storm
 * (evaluation throws, config-load allocation failures, connection
 * resets on read, short writes), driven by reconnecting closed-loop
 * clients. The pass criterion is graceful degradation, not a perf
 * number: every request resolves to a well-formed response or a
 * dropped connection (never a hang), healthy traffic keeps flowing
 * through the storm, and the stack serves cleanly the moment the
 * faults disarm. Counters are reported for trend-watching, but no
 * baseline is pinned — the storm's throughput is not a contract.
 *
 * Usage: serve_chaos [--jobs N] [--json BENCH_serve_chaos.json]
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "config/config_loader.hh"
#include "hw/hw_zoo.hh"
#include "serve/http_server.hh"
#include "serve/service.hh"
#include "util/fault_injection.hh"
#include "util/strfmt.hh"

using namespace madmax;
using namespace madmax::bench;

namespace
{

constexpr int kClients = 4;
constexpr int kRequestsPerClient = 400;

/** Everything armed at once; every trigger is seeded, so reruns see
 *  the same storm. */
constexpr const char *kStorm =
    "engine.eval=throw@prob:0.2,seed:11;"
    "config.load=badalloc@prob:0.05,seed:12;"
    "http.read=errno:ECONNRESET@prob:0.02,seed:13;"
    "http.write=short@prob:0.10,seed:14";

/** One-shot client: connect, POST, read until EOF (the server closes
 *  error responses; Connection: close covers the rest). Returns the
 *  HTTP status, or 0 if the connection died without a full status
 *  line (a dropped request — acceptable, a hang is not). */
int
oneShot(int port, const std::string &body)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return 0;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return 0;
    }
    std::string raw =
        "POST /v1/evaluate HTTP/1.1\r\nHost: localhost\r\n"
        "Connection: close\r\nContent-Type: application/json\r\n"
        "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" +
        body;
    size_t off = 0;
    while (off < raw.size()) {
        ssize_t n = ::send(fd, raw.data() + off, raw.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0)
            break;
        off += static_cast<size_t>(n);
    }
    std::string resp;
    char chunk[8192];
    for (;;) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            break;
        resp.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd);
    if (resp.rfind("HTTP/1.1 ", 0) != 0 || resp.size() < 12)
        return 0;
    return std::stoi(resp.substr(9, 3));
}

std::string
evaluateBody(const std::string &base_dense)
{
    JsonValue model;
    model.set("type", "zoo");
    model.set("name", "DLRM-A");
    JsonValue strategies;
    strategies.set("sparse_embedding", "(MP)");
    strategies.set("base_dense", base_dense);
    JsonValue task;
    task.set("task", "pre-training");
    task.set("strategies", std::move(strategies));
    JsonValue body;
    body.set("model", std::move(model));
    body.set("system", toJson(hw_zoo::dlrmTrainingSystem()));
    body.set("task", std::move(task));
    return body.dump(2);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchReporter reporter("serve_chaos", argc, argv);
    banner(std::cout,
           "serve chaos — seeded fault storm vs. the resident "
           "serving stack",
           "resilience soak: every fault degrades to a taxonomy "
           "error or a closed connection, never a hang or a crash");

    ServiceOptions sopts;
    sopts.jobs = reporter.jobs();
    sopts.breakerOpenMillis = 200; // Trip AND recover mid-storm.
    EvalService service(sopts);
    HttpServerOptions hopts;
    hopts.port = 0;
    hopts.workers = kClients;
    hopts.classifier = [&service](const HttpRequest &r) {
        return service.classify(r);
    };
    HttpServer server(
        [&service](const HttpRequest &r) { return service.handle(r); },
        hopts);
    service.setTransportStatsProvider(
        [&server] { return server.stats(); });
    server.start();

    // Rotating distinct plans keeps cold evaluations (and with them
    // the engine.eval and config.load fault points) in play for the
    // whole storm: a failed evaluation is never memoized, so faulted
    // bodies stay cold until a later request lands them cleanly.
    std::vector<std::string> bodies;
    for (const char *plan : {"(DDP)", "(FSDP)", "(TP, DDP)",
                             "(FSDP, DDP)", "(TP, FSDP)", "(MP)",
                             "(DDP, FSDP)", "(TP)"})
        bodies.push_back(evaluateBody(plan));
    if (oneShot(server.port(), bodies[0]) != 200) {
        std::cerr << "error: warm-up request failed pre-storm\n";
        return 1;
    }

    std::atomic<long> ok{0}, clientErrors{0}, serverErrors{0},
        dropped{0};
    FaultInjection::configure(kStorm);
    WallTimer timer;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int r = 0; r < kRequestsPerClient; ++r) {
                int status = oneShot(server.port(),
                                     bodies[(c + r) % bodies.size()]);
                if (status == 200)
                    ++ok;
                else if (status >= 500)
                    ++serverErrors;
                else if (status >= 400)
                    ++clientErrors;
                else
                    ++dropped;
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    double seconds = timer.seconds();
    FaultInjection::clearAll();

    const long total =
        static_cast<long>(kClients) * kRequestsPerClient;
    std::cout << strfmt(
        "storm: %ld reqs in %.1f s -> %ld ok, %ld 5xx, %ld 4xx, "
        "%ld dropped\n",
        total, seconds, ok.load(), serverErrors.load(),
        clientErrors.load(), dropped.load());
    reporter.record("storm_rps", total / seconds, "requests/s");
    reporter.record("ok_fraction",
                    static_cast<double>(ok.load()) / total, "ratio");
    reporter.record("error_fraction",
                    static_cast<double>(serverErrors.load() +
                                        clientErrors.load()) /
                        total,
                    "ratio");
    reporter.record("dropped_fraction",
                    static_cast<double>(dropped.load()) / total,
                    "ratio");

    CircuitBreakerStats br = service.breaker().stats();
    BatchDispatcherStats bd = service.dispatcher().stats();
    HttpServerStats ts = server.stats();
    std::cout << strfmt(
        "degradation: breaker %ld trips / %ld rejects / %ld "
        "recoveries | eval failures %ld | transport %ld accepted\n",
        br.trips, br.rejects, br.recoveries,
        service.stats().evalFailures, ts.accepted);
    reporter.record("breaker_trips", static_cast<double>(br.trips),
                    "count");
    reporter.record("eval_failures",
                    static_cast<double>(service.stats().evalFailures),
                    "count");
    reporter.record("watchdog_takeovers",
                    static_cast<double>(bd.watchdogTakeovers),
                    "count");

    // The pass criteria: the storm let real work through, every
    // request resolved, and the stack is healthy the moment the
    // faults disarm.
    int postStorm = oneShot(server.port(), bodies[0]);
    server.stop();
    if (ok.load() == 0) {
        std::cerr << "error: no request survived the storm\n";
        return 1;
    }
    if (postStorm != 200) {
        std::cerr << "error: post-storm request returned "
                  << postStorm << "\n";
        return 1;
    }
    std::cout << "post-storm request clean; stack degraded "
                 "gracefully and recovered\n";
    return 0;
}
