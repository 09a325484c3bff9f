/**
 * @file
 * EvalService tests: the /v1 API contract. Byte-identity of
 * POST /v1/evaluate with `madmax_cli evaluate --format json` (both
 * render through toJson(PerfReport)), shared-memo-cache accounting
 * across repeated requests (visible in GET /v1/stats), request
 * parsing error paths, /v1/explore's CLI-shaped output, and
 * concurrent clients over a real socket receiving identical bytes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "config/config_loader.hh"
#include "dse/strategy_explorer.hh"
#include "serve/http_server.hh"
#include "serve/service.hh"
#include "serve_test_util.hh"
#include "util/fault_injection.hh"

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

HttpRequest
get(const std::string &path)
{
    HttpRequest req;
    req.method = "GET";
    req.target = path;
    req.version = "HTTP/1.1";
    return req;
}

/** What `madmax_cli evaluate --format json` prints for the shipped
 *  configs/ triple (the CLI renders through the same toJson). */
std::string
expectedEvaluateBody()
{
    const std::string dir = MADMAX_CONFIG_DIR;
    ModelDesc model = loadModelFile(dir + "/model_dlrm_a.json");
    ClusterSpec cluster = loadClusterFile(dir + "/system_zionex.json");
    TaskConfig task =
        loadTaskFile(dir + "/task_pretrain_optimal.json");
    PerfModel perf(cluster);
    PerfReport report = perf.evaluate(model, task.task, task.plan);
    return toJson(report).dump(2) + "\n";
}

/** The same for the triple in an arbitrary request body. */
std::string
expectedBodyFor(const std::string &requestBody)
{
    JsonValue body = JsonValue::parse(requestBody);
    ModelDesc model = loadModel(body.at("model"));
    ClusterSpec cluster = loadCluster(body.at("system"));
    TaskConfig task = loadTask(body.at("task"));
    PerfModel perf(cluster);
    PerfReport report = perf.evaluate(model, task.task, task.plan);
    return toJson(report).dump(2) + "\n";
}

/** The shipped triple with one task strategy replaced. */
std::string
shippedBodyWith(const char *layerClass, const char *strategy)
{
    JsonValue body = JsonValue::parse(shippedTripleBody());
    body.member("task").member("strategies").set(layerClass, strategy);
    return body.dump(2);
}

/** The engine memo key @p requestBody resolves to, with a prefix of
 *  its own. */
MemoKey
engineKeyFor(const std::string &requestBody)
{
    JsonValue body = JsonValue::parse(requestBody);
    ModelDesc model = loadModel(body.at("model"));
    PerfModel perf(loadCluster(body.at("system")));
    TaskConfig task = loadTask(body.at("task"));
    return EvalEngine::memoKey({&perf, &model, &task.task, task.plan});
}

} // namespace

TEST(EvalService, EvaluateMatchesCliJsonByteForByte)
{
    EvalService service;
    HttpResponse resp =
        service.handle(post("/v1/evaluate", shippedTripleBody()));
    ASSERT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body, expectedEvaluateBody());
}

TEST(EvalService, RepeatedEvaluateIsServedFromTheSharedCache)
{
    EvalService service;
    std::string body = shippedTripleBody();

    HttpResponse first = service.handle(post("/v1/evaluate", body));
    HttpResponse second = service.handle(post("/v1/evaluate", body));
    ASSERT_EQ(first.status, 200);
    EXPECT_EQ(first.body, second.body);

    // One full evaluation, one memo hit — and /v1/stats says so.
    EngineCounters c = service.engine().counters();
    EXPECT_EQ(c.lifetime.evaluations, 1);
    EXPECT_EQ(c.lifetime.cacheHits, 1);
    EXPECT_EQ(c.cacheEntries, 1u);

    HttpResponse stats = service.handle(get("/v1/stats"));
    ASSERT_EQ(stats.status, 200);
    JsonValue doc = JsonValue::parse(stats.body);
    EXPECT_EQ(doc.at("engine").at("lifetime").at("cache_hits").asLong(),
              1);
    EXPECT_EQ(
        doc.at("engine").at("lifetime").at("evaluations").asLong(), 1);
    EXPECT_EQ(doc.at("engine").at("cache").at("entries").asLong(), 1);
    EXPECT_EQ(
        doc.at("server").at("requests").at("evaluate").asLong(), 2);
    // A healthy engine keeps the four-field lifetime schema that
    // toJson(EvalStats) gives the explore and pareto documents.
    EXPECT_FALSE(doc.at("engine").at("lifetime").has("failed"));
}

TEST(EvalService, RepeatHitsServeTheStoredBytes)
{
    EvalService service;
    std::string body = shippedTripleBody();
    std::string expected = expectedEvaluateBody();

    // A cold evaluation, a hit that renders and stores the body, and
    // three hits served from the stored bytes.
    for (int i = 0; i < 5; ++i) {
        HttpResponse resp = service.handle(post("/v1/evaluate", body));
        ASSERT_EQ(resp.status, 200) << "request " << i;
        EXPECT_EQ(resp.contentType, "application/json") << "request " << i;
        EXPECT_EQ(resp.body, expected) << "request " << i;
    }
    EXPECT_EQ(service.engine().counters().lifetime.evaluations, 1);
    EXPECT_EQ(service.engine().counters().lifetime.cacheHits, 4);
    EXPECT_EQ(service.dispatcher().stats().memoFastPath, 4);

    MemoEntry entry;
    ASSERT_TRUE(service.engine().tryCached(engineKeyFor(body), entry));
    ASSERT_NE(entry.body, nullptr);
    EXPECT_EQ(entry.body->bytes, expected);
}

TEST(EvalService, StoredBytesAnswerOnlyTheirOwnPlan)
{
    // DLRM-A has no transformer layers: both bodies resolve to one
    // engine key, but each response must print its own plan.
    std::string a = shippedTripleBody();
    std::string b = shippedBodyWith("transformer", "(FSDP)");
    ASSERT_EQ(engineKeyFor(a), engineKeyFor(b));
    std::string expectA = expectedBodyFor(a);
    std::string expectB = expectedBodyFor(b);
    ASSERT_NE(expectA, expectB);
    const std::string planA =
        JsonValue::parse(expectA).at("plan").asString();
    const std::string planB =
        JsonValue::parse(expectB).at("plan").asString();

    EvalService service;
    for (int round = 0; round < 3; ++round) {
        HttpResponse ra = service.handle(post("/v1/evaluate", a));
        HttpResponse rb = service.handle(post("/v1/evaluate", b));
        ASSERT_EQ(ra.status, 200);
        ASSERT_EQ(rb.status, 200);
        EXPECT_EQ(JsonValue::parse(ra.body).at("plan").asString(), planA)
            << "round " << round;
        EXPECT_EQ(JsonValue::parse(rb.body).at("plan").asString(), planB)
            << "round " << round;
        EXPECT_EQ(ra.body, expectA) << "round " << round;
        EXPECT_EQ(rb.body, expectB) << "round " << round;
    }
    EngineCounters c = service.engine().counters();
    EXPECT_EQ(c.lifetime.evaluations, 1);
    EXPECT_EQ(c.lifetime.cacheHits, 5);
    EXPECT_EQ(c.cacheEntries, 1u);
}

TEST(EvalService, PlanVariantsOfOneTripleShareItsKeyPrefix)
{
    // Two plans of one triple: both bodies' engine keys hold the
    // triple's own prefix, and a repeat of either is a memo hit.
    std::string a = shippedTripleBody();
    std::string c = shippedBodyWith("base_dense", "(FSDP)");
    ConfigCache cache(8);
    CachedRequest ra = cache.lookup(a);
    CachedRequest rc = cache.lookup(c);
    ASSERT_EQ(ra.triple, rc.triple);
    EXPECT_EQ(ra.engineKey.prefix, ra.triple->keyPrefix);
    EXPECT_EQ(rc.engineKey.prefix, ra.triple->keyPrefix);
    EXPECT_FALSE(ra.engineKey == rc.engineKey);
    EXPECT_TRUE(ra.engineKey == engineKeyFor(a));
    EXPECT_TRUE(rc.engineKey == engineKeyFor(c));

    EvalService service;
    for (int round = 0; round < 2; ++round) {
        for (const std::string *body : {&a, &c})
            ASSERT_EQ(service.handle(post("/v1/evaluate", *body)).status,
                      200);
    }
    MemoKey ka;
    MemoKey kc;
    ASSERT_TRUE(service.configCache().peekKey(a, ka));
    ASSERT_TRUE(service.configCache().peekKey(c, kc));
    EXPECT_EQ(ka.prefix, kc.prefix);
    // The prefix's only holders: the triple, two body-cache entries,
    // two memo entries, and ka and kc. The memo keeps no copy.
    EXPECT_EQ(ka.prefix.use_count(), 7);
    EXPECT_EQ(service.engine().counters().lifetime.evaluations, 2);
    EXPECT_EQ(service.dispatcher().stats().memoFastPath, 2);
}

TEST(EvalService, StoredBytesLeaveEveryCounterAsBefore)
{
    // A one-entry memo under A A A C C A A: evaluate, render, serve
    // bytes; C evicts A (and its bytes); render C; A evaluates again
    // and its first hit renders again. The counters are the ones a
    // render-every-hit service reports for the same sequence.
    ServiceOptions opts;
    opts.jobs = 1;
    opts.cacheCapacity = 1;
    EvalService service(opts);
    std::string a = shippedTripleBody();
    std::string c = shippedBodyWith("base_dense", "(FSDP)");
    ASSERT_NE(engineKeyFor(a), engineKeyFor(c));
    std::string expectA = expectedBodyFor(a);
    std::string expectC = expectedBodyFor(c);

    for (const std::string *body : {&a, &a, &a, &c, &c, &a, &a}) {
        HttpResponse resp = service.handle(post("/v1/evaluate", *body));
        ASSERT_EQ(resp.status, 200);
        EXPECT_EQ(resp.body, body == &a ? expectA : expectC);
    }

    JsonValue doc =
        JsonValue::parse(service.handle(get("/v1/stats")).body);
    const JsonValue &engine = doc.at("engine");
    EXPECT_EQ(engine.at("lifetime").at("evaluations").asLong(), 3);
    EXPECT_EQ(engine.at("lifetime").at("cache_hits").asLong(), 4);
    EXPECT_EQ(engine.at("lifetime").at("pruned").asLong(), 0);
    EXPECT_EQ(engine.at("cache").at("insertions").asLong(), 3);
    EXPECT_EQ(engine.at("cache").at("evictions").asLong(), 2);
    EXPECT_EQ(engine.at("cache").at("entries").asLong(), 1);
    const JsonValue &batching = doc.at("server").at("batching");
    EXPECT_EQ(batching.at("memo_fast_path").asLong(), 4);
    EXPECT_EQ(batching.at("batched_requests").asLong(), 3);
}

TEST(EvalService, OpenBreakerRejectsAKeyWithStoredBytes)
{
    ServiceOptions opts;
    opts.jobs = 1;
    opts.breakerFailureThreshold = 3;
    opts.breakerOpenMillis = 60000;
    EvalService service(opts);
    std::string a = shippedTripleBody();
    ASSERT_EQ(service.handle(post("/v1/evaluate", a)).status, 200);
    ASSERT_EQ(service.handle(post("/v1/evaluate", a)).status, 200);

    // Same triple (one breaker key), another plan (another memo key):
    // three failed evaluations trip the triple's breaker.
    std::string other = shippedBodyWith("base_dense", "(FSDP)");
    {
        FaultScope scope("engine.eval=throw");
        for (int i = 0; i < 3; ++i)
            ASSERT_EQ(
                service.handle(post("/v1/evaluate", other)).status, 500)
                << "failure " << i;
    }

    HttpResponse rejected = service.handle(post("/v1/evaluate", a));
    EXPECT_EQ(rejected.status, 503);
    EXPECT_EQ(JsonValue::parse(rejected.body)
                  .at("error")
                  .at("code")
                  .asString(),
              "circuit_open");
    // The breaker admits before the memo probe: no hit was counted.
    EXPECT_EQ(service.dispatcher().stats().memoFastPath, 1);
    EXPECT_EQ(service.engine().counters().lifetime.cacheHits, 1);
}

TEST(EvalService, MalformedJsonIs400)
{
    EvalService service;
    HttpResponse resp =
        service.handle(post("/v1/evaluate", "this is not json"));
    EXPECT_EQ(resp.status, 400);
    JsonValue doc = JsonValue::parse(resp.body);
    EXPECT_EQ(doc.at("error").at("code").asString(), "bad_request");
    EXPECT_EQ(service.stats().errors, 1);
}

TEST(EvalService, DeeplyNestedBodyIs400NotACrash)
{
    // A 400 KB '[[[[...' body fits the transport's 1 MiB cap but
    // would overflow the stack without the parser's nesting limit —
    // one request must not be able to kill the resident service.
    EvalService service;
    HttpResponse resp = service.handle(
        post("/v1/evaluate", std::string(400000, '[')));
    EXPECT_EQ(resp.status, 400);
    EXPECT_NE(resp.body.find("nesting"), std::string::npos);
}

TEST(EvalService, NonObjectBodyIs400)
{
    EvalService service;
    HttpResponse resp = service.handle(post("/v1/evaluate", "[1, 2]"));
    EXPECT_EQ(resp.status, 400);
    EXPECT_NE(resp.body.find("JSON object"), std::string::npos);
}

TEST(EvalService, MissingMemberIs400NamingTheMember)
{
    EvalService service;
    JsonValue body = JsonValue::parse(shippedTripleBody());
    JsonValue::Object partial;
    partial["model"] = body.at("model");
    partial["system"] = body.at("system");
    HttpResponse resp = service.handle(
        post("/v1/evaluate", JsonValue(partial).dump(2)));
    EXPECT_EQ(resp.status, 400);
    EXPECT_NE(resp.body.find("\\\"task\\\""), std::string::npos);
}

TEST(EvalService, InvalidConfigContentsAre400)
{
    EvalService service;
    HttpResponse resp = service.handle(post(
        "/v1/evaluate",
        R"({"model": {"type": "nonsense"}, "system": {}, "task": {}})"));
    EXPECT_EQ(resp.status, 400);
    EXPECT_EQ(JsonValue::parse(resp.body)
                  .at("error")
                  .at("code")
                  .asString(),
              "bad_request");
}

TEST(EvalService, UnknownEndpointAndMethodAreCounted)
{
    EvalService service;
    EXPECT_EQ(service.handle(get("/v2/evaluate")).status, 404);
    EXPECT_EQ(service.handle(get("/v1/evaluate")).status, 405);
    EXPECT_EQ(service.stats().errors, 2);
}

TEST(EvalService, ExploreMirrorsTheCliSchema)
{
    EvalService service;
    JsonValue body = JsonValue::parse(shippedTripleBody());
    body.set("top", 3);
    HttpResponse resp =
        service.handle(post("/v1/explore", body.dump(2)));
    ASSERT_EQ(resp.status, 200);

    JsonValue doc = JsonValue::parse(resp.body);
    ASSERT_TRUE(doc.at("results").isArray());
    EXPECT_EQ(doc.at("results").size(), 3u);
    const JsonValue &search = doc.at("search");
    EXPECT_GT(search.at("evaluations").asLong(), 0);
    EXPECT_GE(search.at("pruned").asLong(), 0);

    // Rank 1 must be the best throughput and carry the full
    // per-report schema the CLI emits.
    const JsonValue &top = doc.at("results").at(size_t{0});
    EXPECT_TRUE(top.at("valid").asBool());
    EXPECT_GE(top.at("throughput_samples_per_sec").asDouble(),
              doc.at("results")
                  .at(size_t{1})
                  .at("throughput_samples_per_sec")
                  .asDouble());
}

TEST(EvalService, ExploreRejectsOutOfRangeTop)
{
    EvalService service;
    JsonValue body = JsonValue::parse(shippedTripleBody());
    body.set("top", -1);
    EXPECT_EQ(service.handle(post("/v1/explore", body.dump(2))).status,
              400);
    // Beyond-size_t doubles must be rejected, not cast (UB).
    body.set("top", 1e300);
    EXPECT_EQ(service.handle(post("/v1/explore", body.dump(2))).status,
              400);
    body.set("top", 2.5);
    EXPECT_EQ(service.handle(post("/v1/explore", body.dump(2))).status,
              400);
}

TEST(EvalService, ExploreNoMemoryLimitSearchesAnUnconstrainedModel)
{
    // "no_memory_limit" explores with PerfModelOptions::ignoreMemory,
    // as `madmax explore --no-memory-limit` does. The search's wall
    // time is the one field that differs run to run.
    auto withoutWallTime = [](JsonValue doc) {
        doc.member("search").set("wall_seconds", 0.0);
        return doc.dump(2) + "\n";
    };
    EvalService service;
    JsonValue body = JsonValue::parse(shippedTripleBody());
    HttpResponse constrained =
        service.handle(post("/v1/explore", body.dump(2)));
    body.set("no_memory_limit", true);
    HttpResponse unconstrained =
        service.handle(post("/v1/explore", body.dump(2)));
    ASSERT_EQ(constrained.status, 200);
    ASSERT_EQ(unconstrained.status, 200);

    PerfModelOptions opts;
    opts.ignoreMemory = true;
    PerfModel perf(loadCluster(body.at("system")), opts);
    Exploration expected = StrategyExplorer(perf).explore(
        loadModel(body.at("model")), loadTask(body.at("task")).task);
    const std::string got =
        withoutWallTime(JsonValue::parse(unconstrained.body));
    EXPECT_EQ(got, withoutWallTime(toJson(expected, 5)));
    EXPECT_NE(got, withoutWallTime(JsonValue::parse(constrained.body)));
}

namespace
{

/** A /v1/pareto body over the shipped configs: the ZionEX system
 *  swept across two node counts (a small joint space, kept quick). */
JsonValue
paretoBody()
{
    const std::string dir = MADMAX_CONFIG_DIR;
    JsonValue body;
    body.set("model", JsonValue::parseFile(dir + "/model_dlrm_a.json"));
    body.set("task",
             JsonValue::parseFile(dir + "/task_pretrain_optimal.json"));
    body.set("system",
             JsonValue::parseFile(dir + "/system_zionex.json"));
    JsonValue counts;
    counts.append(8);
    counts.append(16);
    body.set("node_counts", std::move(counts));
    return body;
}

} // namespace

TEST(EvalService, ParetoMirrorsTheCliSchema)
{
    EvalService service;
    HttpResponse resp =
        service.handle(post("/v1/pareto", paretoBody().dump(2)));
    ASSERT_EQ(resp.status, 200);

    JsonValue doc = JsonValue::parse(resp.body);
    EXPECT_EQ(doc.at("strategy").asString(), "exhaustive");
    ASSERT_TRUE(doc.at("hardware").isArray());
    EXPECT_EQ(doc.at("hardware").size(), 2u);
    ASSERT_TRUE(doc.at("frontier").isArray());
    ASSERT_GT(doc.at("frontier").size(), 0u);
    EXPECT_EQ(doc.at("baselines").size(), 2u);
    EXPECT_GT(doc.at("evaluated_points").asLong(), 0);
    EXPECT_GT(doc.at("search").at("evaluations").asLong(), 0);

    // Frontier entries carry the hardware name, the plan, the three
    // objectives, and the full report (same toJson as /v1/evaluate).
    const JsonValue &top = doc.at("frontier").at(size_t{0});
    EXPECT_FALSE(top.at("hardware").asString().empty());
    EXPECT_FALSE(top.at("plan").asString().empty());
    EXPECT_GT(top.at("objectives").at("throughput").asDouble(), 0.0);
    EXPECT_GT(
        top.at("objectives").at("mem_headroom_bytes").asDouble(), 0.0);
    EXPECT_TRUE(top.at("report").at("valid").asBool());
}

TEST(EvalService, ParetoHonorsStrategyBudgetAndSeed)
{
    EvalService service;
    JsonValue body = paretoBody();
    body.set("strategy", "genetic");
    body.set("budget", 10);
    body.set("seed", 7);
    HttpResponse resp =
        service.handle(post("/v1/pareto", body.dump(2)));
    ASSERT_EQ(resp.status, 200);
    JsonValue doc = JsonValue::parse(resp.body);
    EXPECT_EQ(doc.at("strategy").asString(), "genetic");
    EXPECT_LE(doc.at("search").at("evaluations").asLong(), 10);
}

TEST(EvalService, ParetoRejectsBadInput)
{
    EvalService service;

    JsonValue missing = paretoBody();
    // (JsonValue has no erase; rebuild without "task".)
    JsonValue noTask;
    noTask.set("model", missing.at("model"));
    noTask.set("system", missing.at("system"));
    EXPECT_EQ(
        service.handle(post("/v1/pareto", noTask.dump(2))).status, 400);

    JsonValue badStrategy = paretoBody();
    badStrategy.set("strategy", "brute-force");
    EXPECT_EQ(
        service.handle(post("/v1/pareto", badStrategy.dump(2))).status,
        400);

    JsonValue conflict = paretoBody();
    conflict.set("catalog", "cloud");
    EXPECT_EQ(
        service.handle(post("/v1/pareto", conflict.dump(2))).status,
        400);

    JsonValue badCounts = paretoBody();
    JsonValue counts;
    counts.append(0);
    badCounts.set("node_counts", std::move(counts));
    EXPECT_EQ(
        service.handle(post("/v1/pareto", badCounts.dump(2))).status,
        400);

    // A bare cast searched a 2.5 budget as 2.
    JsonValue fractionalBudget = paretoBody();
    fractionalBudget.set("strategy", "genetic");
    fractionalBudget.set("budget", 2.5);
    EXPECT_EQ(service.handle(post("/v1/pareto", fractionalBudget.dump(2)))
                  .status,
              400);

    EXPECT_EQ(service.stats().errors, 5);
}

TEST(EvalService, ParetoRequestsAreCountedInStats)
{
    EvalService service;
    ASSERT_EQ(
        service.handle(post("/v1/pareto", paretoBody().dump(2))).status,
        200);
    JsonValue doc =
        JsonValue::parse(service.handle(get("/v1/stats")).body);
    EXPECT_EQ(
        doc.at("server").at("requests").at("pareto").asLong(), 1);
    // The pareto request plus the /v1/stats request reporting it.
    EXPECT_EQ(doc.at("server").at("requests_total").asLong(), 2);
}

TEST(EvalService, HealthReportsOkAndJobs)
{
    EvalService service;
    HttpResponse resp = service.handle(get("/v1/health"));
    ASSERT_EQ(resp.status, 200);
    JsonValue doc = JsonValue::parse(resp.body);
    EXPECT_EQ(doc.at("status").asString(), "ok");
    EXPECT_GE(doc.at("jobs").asLong(), 1);
    EXPECT_GE(doc.at("uptime_seconds").asDouble(), 0.0);
}

TEST(EvalService, ConcurrentClientsReceiveIdenticalBytes)
{
    // End to end over real sockets: many clients, one shared engine;
    // every response must be the same bytes (first computed, the rest
    // memo hits).
    EvalService service;
    HttpServerOptions opts;
    opts.port = 0;
    opts.workers = 4;
    HttpServer server(
        [&service](const HttpRequest &r) { return service.handle(r); },
        opts);
    service.setTransportStatsProvider(
        [&server] { return server.stats(); });
    server.start();

    std::string requestBody = shippedTripleBody();
    std::string expected = expectedEvaluateBody();

    // Warm the cache serially: two cold concurrent requests may both
    // miss and both evaluate (cross-call dedup only exists through
    // the cache), which would make the accounting below racy.
    ASSERT_EQ(bodyOf(httpExchange(server.port(),
                              postRequest("/v1/evaluate",
                                          requestBody))),
              expected);

    constexpr int kClients = 6;
    constexpr int kRequests = 4;
    std::atomic<int> ok{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&] {
            for (int r = 0; r < kRequests; ++r) {
                std::string resp = httpExchange(
                    server.port(),
                    postRequest("/v1/evaluate", requestBody));
                if (statusOf(resp) == 200 && bodyOf(resp) == expected)
                    ++ok;
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    server.stop();

    EXPECT_EQ(ok.load(), kClients * kRequests);
    // The triple is one cache entry: exactly one full evaluation ever
    // ran (the warmup), every concurrent request was a shared hit.
    EngineCounters counters = service.engine().counters();
    EXPECT_EQ(counters.lifetime.evaluations, 1);
    EXPECT_EQ(counters.lifetime.cacheHits,
              long{kClients * kRequests});

    // With a provider wired, /v1/stats also exposes the transport's
    // counters (rejections never reach the service, so they are only
    // visible through this object).
    JsonValue stats = JsonValue::parse(
        service.handle(get("/v1/stats")).body);
    EXPECT_GE(stats.at("transport").at("served").asLong(),
              long{kClients * kRequests} + 1);
    EXPECT_EQ(stats.at("transport").at("rejected_queue_full").asLong(),
              0);
}

namespace
{

/** A /v1/pareto serving-placement body over the shipped Llama-2
 *  serving triple (model + mixed fleet + workload). */
JsonValue
workloadParetoBody()
{
    const std::string dir = MADMAX_CONFIG_DIR;
    JsonValue body;
    body.set("model",
             JsonValue::parseFile(dir + "/model_llama2_13b.json"));
    body.set("system",
             JsonValue::parseFile(dir + "/system_mixed_inference.json"));
    body.set("workload",
             JsonValue::parseFile(dir + "/workload_serving.json"));
    return body;
}

} // namespace

TEST(EvalService, ParetoWorkloadMirrorsTheCliPlacementSearch)
{
    EvalService service;
    HttpResponse resp =
        service.handle(post("/v1/pareto", workloadParetoBody().dump(2)));
    ASSERT_EQ(resp.status, 200) << resp.body;

    // Byte-identical to what the CLI's --workload JSON mode prints
    // (modulo wall time, which is nondeterministic).
    JsonValue doc = JsonValue::parse(resp.body);
    ASSERT_TRUE(doc.at("islands").isArray());
    EXPECT_EQ(doc.at("islands").size(), 2u);
    EXPECT_EQ(doc.at("placements").size(), 4u);
    ASSERT_GT(doc.at("frontier").size(), 0u);
    const JsonValue &top = doc.at("frontier").at(size_t{0});
    EXPECT_EQ(top.at("prefill_island").asString(), "h100-pool");
    EXPECT_EQ(top.at("decode_island").asString(), "a100-80-pool");
    EXPECT_GT(top.at("objectives").at("tokens_per_sec").asDouble(), 0.0);
    EXPECT_TRUE(top.at("report").at("valid").asBool());
}

TEST(EvalService, ParetoWorkloadRejectsSweepKeys)
{
    EvalService service;

    // The placement search derives its own phases; the sweep-shaped
    // keys are contradictions, not extras to ignore.
    JsonValue conflicted = workloadParetoBody();
    conflicted.set("budget", 16);
    HttpResponse resp =
        service.handle(post("/v1/pareto", conflicted.dump(2)));
    EXPECT_EQ(resp.status, 400);
    EXPECT_NE(resp.body.find("workload"), std::string::npos);

    JsonValue withTask = workloadParetoBody();
    withTask.set("task",
                 JsonValue::parse(R"json({"task": "inference"})json"));
    EXPECT_EQ(
        service.handle(post("/v1/pareto", withTask.dump(2))).status, 400);

    // A workload body still needs the system it places onto.
    const std::string dir = MADMAX_CONFIG_DIR;
    JsonValue noSystem;
    noSystem.set("model",
                 JsonValue::parseFile(dir + "/model_llama2_13b.json"));
    noSystem.set("workload",
                 JsonValue::parseFile(dir + "/workload_serving.json"));
    EXPECT_EQ(
        service.handle(post("/v1/pareto", noSystem.dump(2))).status, 400);
}

} // namespace madmax
