/**
 * @file
 * Micro-batching + parsed-config-cache tests: evaluates of one triple
 * that queue behind a running batch coalesce into the next engine
 * batch with byte-identical responses, repeat bodies skip parsing via
 * the config cache, whitespace-variant bodies share one ParsedTriple,
 * a new plan for a cached triple adopts it without reloading while
 * invalid bodies keep the model-system-task error order,
 * /v1/metrics speaks Prometheus, admission classification tiers
 * requests, SingleFlight deduplicates identical in-flight work, the
 * watchdog rescues requests queued behind a wedged batch leader while
 * a rescue batch's riders sleep until it ends, and per-request
 * deadlines abandon cleanly from either wait stage.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <mutex>
#include <thread>
#include <vector>

#include "config/config_loader.hh"
#include "core/eval_context.hh"
#include "serve/batch_dispatcher.hh"
#include "serve/errors.hh"
#include "serve/service.hh"
#include "serve_test_util.hh"
#include "util/fault_injection.hh"
#include "util/logging.hh"
#include "util/lru_cache.hh"

namespace madmax
{

using namespace serve_test;

namespace
{

HttpRequest
evaluateRequest(const std::string &body)
{
    HttpRequest req;
    req.method = "POST";
    req.target = "/v1/evaluate";
    req.body = body;
    return req;
}

ServiceOptions
testOptions()
{
    ServiceOptions opts;
    opts.jobs = 2;
    return opts;
}

/** The shipped triple with @p member ("model", "system" or "task")
 *  replaced by @p value, as a request body. */
std::string
shippedBodyWith(const std::string &member, JsonValue value)
{
    JsonValue doc = JsonValue::parse(shippedTripleBody());
    doc.set(member, std::move(value));
    return doc.dump(2);
}

/** The shipped task with its BaseDense strategy set to @p strategy. */
JsonValue
shippedTaskWith(const std::string &strategy)
{
    JsonValue task = JsonValue::parse(shippedTripleBody()).at("task");
    task.member("strategies").set("base_dense", strategy);
    return task;
}

/** The ConfigError message @p load throws for @p json. */
template <typename Loader>
std::string
loaderError(Loader load, const JsonValue &json)
{
    try {
        load(json);
    } catch (const ConfigError &e) {
        return e.what();
    }
    ADD_FAILURE() << "loader accepted " << json.dump();
    return "";
}

/** Block until @p service's dispatcher has submitted @p n batches. */
void
waitForBatches(EvalService &service, long n)
{
    while (service.dispatcher().stats().windows < n)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

JsonValue
badModel()
{
    return JsonValue::parse(R"({"type": "zoo", "name": "No-Such-Model"})");
}

JsonValue
badTask()
{
    return shippedTaskWith("(WARP, DDP)");
}

} // namespace

TEST(Batching, ConcurrentSameTripleRequestsCoalesceByteIdentically)
{
    // A holder request for another plan of the triple leads the first
    // batch, which an injected delay keeps evaluating. Concurrent
    // requests arriving meanwhile queue behind it and leave together
    // as the next batch (stragglers degrade to memo hits, never to
    // extra evaluations).
    EvalService service(testOptions());
    FaultScope scope("engine.eval=delay:300000@nth:1");
    std::thread holder([&] {
        EXPECT_EQ(service.handle(evaluateRequest(shippedBodyWith(
                                     "task", shippedTaskWith("(FSDP)"))))
                      .status,
                  200);
    });
    waitForBatches(service, 1);
    const std::string body = shippedTripleBody();

    constexpr int kThreads = 8;
    std::vector<std::string> responses(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            responses[i] = service.handle(evaluateRequest(body)).body;
        });
    }
    for (std::thread &t : threads)
        t.join();
    holder.join();

    for (int i = 1; i < kThreads; ++i)
        EXPECT_EQ(responses[i], responses[0]) << "thread " << i;
    EXPECT_NE(responses[0].find("\"iteration_seconds\""),
              std::string::npos);

    // One fresh evaluation for the eight requests (plus the holder's):
    // in-batch duplicates collapse, and any straggler that missed the
    // coalesced batch hit the memo cache.
    EngineCounters c = service.engine().counters();
    EXPECT_EQ(c.lifetime.evaluations, 2);
    EXPECT_EQ(c.lifetime.cacheHits + c.lifetime.evaluations +
                  service.dispatcher().stats().memoFastPath,
              kThreads + 1);

    BatchDispatcherStats b = service.dispatcher().stats();
    EXPECT_GE(b.windows, 2);
    EXPECT_GE(b.coalesced, 2) << "no coalescing happened at all";
    EXPECT_LE(b.maxOccupancy, kThreads);
    EXPECT_EQ(b.requests + b.memoFastPath, kThreads + 1);
}

TEST(Batching, RepeatBodiesSkipParsingViaTheConfigCache)
{
    EvalService service(testOptions());
    const std::string body = shippedTripleBody();

    std::string first = service.handle(evaluateRequest(body)).body;
    std::string second = service.handle(evaluateRequest(body)).body;
    EXPECT_EQ(first, second);

    ConfigCache::Stats cc = service.configCache().stats();
    EXPECT_EQ(cc.misses, 1);
    EXPECT_EQ(cc.hits, 1);
    EXPECT_EQ(cc.entries, 1u);

    // The repeat also bypassed the batch queue entirely.
    EXPECT_EQ(service.dispatcher().stats().memoFastPath, 1);
}

TEST(Batching, WhitespaceVariantBodiesShareOneParsedTriple)
{
    EvalService service(testOptions());
    const std::string compact =
        JsonValue::parse(shippedTripleBody()).dump(0);
    const std::string pretty =
        JsonValue::parse(shippedTripleBody()).dump(4);
    ASSERT_NE(compact, pretty);

    std::string a = service.handle(evaluateRequest(compact)).body;
    std::string b = service.handle(evaluateRequest(pretty)).body;
    EXPECT_EQ(a, b);

    ConfigCache::Stats cc = service.configCache().stats();
    EXPECT_EQ(cc.misses, 2);       // Two distinct bodies parsed...
    EXPECT_EQ(cc.tripleShares, 1); // ...one shared parsed triple.
    EXPECT_EQ(cc.tripleEntries, 1u);
    EXPECT_EQ(cc.entries, 2u);

    // Same canonical triple + plan -> same engine key -> the second
    // body was an engine memo hit despite its novel bytes.
    EXPECT_EQ(service.engine().counters().lifetime.evaluations, 1);
}

TEST(Batching, PlanVariantsOfOneTripleShareItsParse)
{
    EvalService service(testOptions());
    const std::vector<std::string> strategies = {"(TP, DDP)", "(FSDP)"};
    for (const std::string &strategy : strategies) {
        std::string body =
            shippedBodyWith("task", shippedTaskWith(strategy));
        std::string served = service.handle(evaluateRequest(body)).body;

        // In-process reference over freshly loaded configs.
        JsonValue doc = JsonValue::parse(body);
        ModelDesc model = loadModel(doc.at("model"));
        PerfModel perf(loadCluster(doc.at("system")));
        TaskConfig task = loadTask(doc.at("task"));
        EvalContext ctx(perf, model, task.task);
        EXPECT_EQ(served, toJson(ctx.evaluate(task.plan)).dump(2) + "\n")
            << strategy;
    }

    ConfigCache::Stats cc = service.configCache().stats();
    EXPECT_EQ(cc.misses, 2);
    EXPECT_EQ(cc.tripleShares, 1); // The second body skipped loading.
    EXPECT_EQ(cc.tripleEntries, 1u);
    EXPECT_EQ(service.engine().counters().lifetime.evaluations, 2);
}

TEST(Batching, BadModelWinsOverBadTaskWhetherOrNotTheTripleIsCached)
{
    // Loading order is model, system, task: a body with a bad model
    // and a bad task reports the model, on a cold service and on one
    // that already holds the body's system in a cached triple.
    JsonValue doc = JsonValue::parse(shippedTripleBody());
    doc.set("model", badModel());
    doc.set("task", badTask());
    const std::string bad = doc.dump(2);
    const HttpResponse expected = makeError(
        ServeError::BadRequest, loaderError(loadModel, badModel()));
    ASSERT_NE(expected.body.find("No-Such-Model"), std::string::npos);

    for (bool warm : {false, true}) {
        EvalService service(testOptions());
        if (warm) {
            ASSERT_EQ(service.handle(evaluateRequest(
                          shippedTripleBody())).status, 200);
        }
        HttpResponse resp = service.handle(evaluateRequest(bad));
        EXPECT_EQ(resp.status, expected.status) << "warm " << warm;
        EXPECT_EQ(resp.body, expected.body) << "warm " << warm;
    }
}

TEST(Batching, CachedTripleWithABadTaskReportsTheTask)
{
    EvalService service(testOptions());
    ASSERT_EQ(service.handle(evaluateRequest(shippedTripleBody())).status,
              200);
    HttpResponse resp = service.handle(
        evaluateRequest(shippedBodyWith("task", badTask())));
    HttpResponse expected = makeError(ServeError::BadRequest,
                                      loaderError(loadTask, badTask()));
    EXPECT_EQ(resp.status, expected.status);
    EXPECT_EQ(resp.body, expected.body);
    EXPECT_EQ(service.configCache().stats().misses, 1);
}

TEST(Batching, ConfigLoadFaultFiresOnABodyMissOfACachedTriple)
{
    EvalService service(testOptions());
    ASSERT_EQ(service.handle(evaluateRequest(shippedTripleBody())).status,
              200);
    const std::string variant =
        shippedBodyWith("task", shippedTaskWith("(FSDP)"));
    {
        FaultScope scope("config.load=throw");
        HttpResponse resp = service.handle(evaluateRequest(variant));
        EXPECT_EQ(resp.status, 500);
        EXPECT_NE(resp.body.find("injected fault at config.load"),
                  std::string::npos);
        // A cached body still cannot fault.
        EXPECT_EQ(service.handle(evaluateRequest(shippedTripleBody()))
                      .status,
                  200);
    }
    EXPECT_EQ(service.handle(evaluateRequest(variant)).status, 200);
    EXPECT_EQ(service.configCache().stats().tripleShares, 1);
}

TEST(Batching, MetricsEndpointSpeaksPrometheus)
{
    EvalService service(testOptions());
    service.handle(evaluateRequest(shippedTripleBody()));

    HttpRequest req;
    req.method = "GET";
    req.target = "/v1/metrics";
    HttpResponse resp = service.handle(req);
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.contentType.rfind("text/plain", 0), 0u);

    for (const char *needle :
         {"# TYPE madmax_requests_total counter",
          "madmax_requests_total{endpoint=\"evaluate\"} 1",
          "# TYPE madmax_engine_evaluations_total counter",
          "madmax_engine_evaluations_total 1",
          "# TYPE madmax_batch_windows_total counter",
          "# TYPE madmax_config_cache_misses_total counter",
          "madmax_config_cache_misses_total 1",
          "# TYPE madmax_uptime_seconds gauge",
          "madmax_request_seconds_total{endpoint=\"evaluate\"}"})
        EXPECT_NE(resp.body.find(needle), std::string::npos)
            << "missing: " << needle;
}

TEST(Batching, StatsReportsBatchingAndConfigCacheSections)
{
    EvalService service(testOptions());
    service.handle(evaluateRequest(shippedTripleBody()));
    service.handle(evaluateRequest(shippedTripleBody()));

    HttpRequest req;
    req.method = "GET";
    req.target = "/v1/stats";
    JsonValue doc = JsonValue::parse(service.handle(req).body);
    const JsonValue &server = doc.at("server");
    EXPECT_EQ(server.at("batching").at("windows").asDouble(), 1);
    EXPECT_EQ(server.at("batching").at("memo_fast_path").asDouble(),
              1);
    EXPECT_EQ(server.at("config_cache").at("hits").asDouble(), 1);
    EXPECT_EQ(server.at("config_cache").at("misses").asDouble(), 1);
    const JsonValue &eng = doc.at("engine");
    EXPECT_EQ(eng.at("batches").at("calls").asDouble(), 1);
    EXPECT_EQ(eng.at("batches").at("requests").asDouble(), 1);
}

TEST(Batching, ClassifierTiersRequestsByExpectedCost)
{
    EvalService service(testOptions());
    const std::string body = shippedTripleBody();

    HttpRequest get;
    get.method = "GET";
    get.target = "/v1/health";
    EXPECT_EQ(service.classify(get), RequestCost::Cheap);

    // Cold evaluate: nothing cached, must be classified Expensive.
    HttpRequest post = evaluateRequest(body);
    EXPECT_EQ(service.classify(post), RequestCost::Expensive);

    // After serving once, the same body is a warm memo hit: Cached.
    service.handle(post);
    EXPECT_EQ(service.classify(post), RequestCost::Cached);

    HttpRequest pareto;
    pareto.method = "POST";
    pareto.target = "/v1/pareto";
    pareto.body = body;
    EXPECT_EQ(service.classify(pareto), RequestCost::Expensive);
}

TEST(Batching, SingleFlightDeduplicatesIdenticalInFlightWork)
{
    SingleFlight flight;
    std::atomic<int> runs{0};
    std::atomic<bool> leaderInFn{false};
    std::mutex gate;
    gate.lock();

    HttpResponse leaderResp;
    std::thread leader([&] {
        leaderResp = flight.run("body-bytes", [&] {
            ++runs;
            leaderInFn = true;
            std::lock_guard<std::mutex> hold(gate);
            HttpResponse r;
            r.body = "computed-once";
            return r;
        });
    });
    while (!leaderInFn.load())
        std::this_thread::yield();

    // The leader is parked inside fn, so this follower must attach
    // to the in-flight entry rather than run fn itself.
    HttpResponse followerResp;
    bool shared = false;
    std::thread follower([&] {
        followerResp = flight.run(
            "body-bytes",
            [&] {
                ++runs;
                return HttpResponse{};
            },
            &shared);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.unlock();
    leader.join();
    follower.join();

    EXPECT_EQ(runs.load(), 1);
    EXPECT_TRUE(shared);
    EXPECT_EQ(leaderResp.body, "computed-once");
    EXPECT_EQ(followerResp.body, "computed-once");

    // A different body is never deduplicated.
    bool sharedOther = false;
    HttpResponse other = flight.run(
        "other-bytes",
        [&] {
            HttpResponse r;
            r.body = "fresh";
            return r;
        },
        &sharedOther);
    EXPECT_FALSE(sharedOther);
    EXPECT_EQ(other.body, "fresh");
}

TEST(Batching, WatchdogRescuesRequestsBehindAWedgedLeader)
{
    // Thread A's evaluation wedges on an injected 600 ms delay while
    // it is the batch leader. A request arriving behind it must not
    // wait the full 600 ms: past the watchdog period it takes over as
    // a rescue leader and submits the queued work as its own batch.
    ServiceOptions opts = testOptions();
    opts.jobs = 1;
    opts.batchWatchdogMillis = 40;
    EvalService service(opts);
    FaultScope scope("engine.eval=delay:600000@nth:1");

    HttpResponse wedgedResp;
    std::thread wedged([&] {
        wedgedResp =
            service.handle(evaluateRequest(shippedTripleBody()));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(150));

    // Well past the 40 ms watchdog: this request rescues itself.
    HttpResponse rescued =
        service.handle(evaluateRequest(shippedTripleBody()));
    EXPECT_EQ(rescued.status, 200);
    EXPECT_EQ(service.dispatcher().stats().watchdogTakeovers, 1);

    wedged.join();
    // The wedged leader's own batch still completed normally.
    EXPECT_EQ(wedgedResp.status, 200);
}

TEST(Batching, RescueBatchRidersWaitWithoutSpinning)
{
    // The holder's batch wedges for 600 ms; past the 100 ms watchdog
    // one of two queued requests rescues both into a batch that is
    // held for 600 ms more. The wedged leader finishes first and
    // clears leaderBusy_ while the rescue batch still evaluates: its
    // rider must keep waiting for it, neither taking the lead over an
    // empty queue nor polling an expired watchdog.
    ServiceOptions opts = testOptions();
    opts.jobs = 1;
    opts.batchWatchdogMillis = 100;
    EvalService service(opts);
    FaultScope scope("engine.eval=delay:600000@range:1-2");

    std::thread holder([&] {
        EXPECT_EQ(service.handle(evaluateRequest(shippedBodyWith(
                                     "task", shippedTaskWith("(FSDP)"))))
                      .status,
                  200);
    });
    waitForBatches(service, 1);
    const std::clock_t cpuStart = std::clock();
    std::vector<std::thread> riders;
    for (int i = 0; i < 2; ++i) {
        riders.emplace_back([&] {
            EXPECT_EQ(
                service.handle(evaluateRequest(shippedTripleBody()))
                    .status,
                200);
        });
    }
    for (std::thread &t : riders)
        t.join();
    holder.join();
    const double cpuMs =
        1000.0 * static_cast<double>(std::clock() - cpuStart) /
        CLOCKS_PER_SEC;

    BatchDispatcherStats b = service.dispatcher().stats();
    EXPECT_EQ(b.watchdogTakeovers, 1);
    EXPECT_EQ(b.windows, 2);
    EXPECT_EQ(b.coalesced, 2);
    // The rider waits about 600 ms; a polling rider burns most of it.
    EXPECT_LT(cpuMs, 300.0);
}

TEST(Batching, DeadlineAbandonsARequestMidBatchEvaluation)
{
    // A holder request leads the first batch, held for 400 ms. Two
    // requests for another plan queue behind it and leave together as
    // the next batch, held for another 400 ms: past their 600 ms
    // deadline. Whichever became that batch's leader never waits and
    // completes normally; the other abandons with stage "evaluating"
    // — its shared slot outlives it for the leader to write into.
    ServiceOptions opts = testOptions();
    opts.jobs = 1;
    opts.requestTimeoutMillis = 600;
    EvalService service(opts);
    FaultScope scope("engine.eval=delay:400000@range:1-2");

    HttpResponse holderResp;
    std::thread holder([&] {
        holderResp = service.handle(evaluateRequest(
            shippedBodyWith("task", shippedTaskWith("(FSDP)"))));
    });
    waitForBatches(service, 1);

    std::vector<HttpResponse> riders(2);
    std::vector<std::thread> threads;
    for (HttpResponse &resp : riders) {
        threads.emplace_back([&] {
            resp = service.handle(evaluateRequest(shippedTripleBody()));
        });
    }
    for (std::thread &t : threads)
        t.join();
    holder.join();
    EXPECT_EQ(holderResp.status, 200);

    std::sort(riders.begin(), riders.end(),
              [](const HttpResponse &a, const HttpResponse &b) {
                  return a.status < b.status;
              });
    EXPECT_EQ(riders[0].status, 200);
    EXPECT_EQ(riders[1].status, 504);
    JsonValue doc = JsonValue::parse(riders[1].body);
    EXPECT_EQ(doc.at("error").at("code").asString(),
              "deadline_exceeded");
    EXPECT_EQ(doc.at("error").at("detail").at("stage").asString(),
              "evaluating");

    BatchDispatcherStats b = service.dispatcher().stats();
    EXPECT_EQ(b.deadlineTimeouts, 1);
    EXPECT_EQ(b.windows, 2);   // The holder's, then one coalesced batch.
    EXPECT_EQ(b.coalesced, 2); // Both riders shared the second.
}

TEST(Batching, LruCacheEvictsLeastRecentlyUsed)
{
    LruCache<int, std::string> cache(2);
    EXPECT_EQ(cache.put(1, "one"), 0u);
    EXPECT_EQ(cache.put(2, "two"), 0u);
    ASSERT_NE(cache.get(1), nullptr); // Touch 1; 2 is now oldest.
    EXPECT_EQ(cache.put(3, "three"), 1u);
    EXPECT_EQ(cache.get(2), nullptr);
    ASSERT_NE(cache.peek(1), nullptr);
    EXPECT_EQ(*cache.peek(1), "one");
    ASSERT_NE(cache.get(3), nullptr);
    EXPECT_EQ(cache.size(), 2u);

    // Heap-allocated keys: overwriting keeps one entry and refreshes
    // recency; clear() empties both sides.
    LruCache<std::string, int> named(2);
    const std::string longKey(300, 'k');
    EXPECT_EQ(named.put(longKey + "a", 1), 0u);
    EXPECT_EQ(named.put(longKey + "b", 2), 0u);
    EXPECT_EQ(named.put(longKey + "a", 10), 0u); // Overwrite in place.
    EXPECT_EQ(named.size(), 2u);
    ASSERT_NE(named.peek(longKey + "a"), nullptr);
    EXPECT_EQ(*named.peek(longKey + "a"), 10);
    EXPECT_EQ(named.put(longKey + "c", 3), 1u); // "b" is least recent.
    EXPECT_EQ(named.peek(longKey + "b"), nullptr);
    ASSERT_NE(named.get(longKey + "a"), nullptr);
    EXPECT_EQ(named.put(longKey + "d", 4), 1u); // Now "c" goes.
    EXPECT_EQ(named.peek(longKey + "c"), nullptr);
    ASSERT_NE(named.peek(longKey + "d"), nullptr);

    named.clear();
    EXPECT_EQ(named.size(), 0u);
    EXPECT_EQ(named.get(longKey + "a"), nullptr);
    EXPECT_EQ(named.put(longKey + "e", 5), 0u);
    EXPECT_EQ(named.put(longKey + "f", 6), 0u);
    EXPECT_EQ(named.put(longKey + "g", 7), 1u);
    EXPECT_EQ(named.peek(longKey + "e"), nullptr);
    EXPECT_EQ(named.size(), 2u);
}

TEST(Batching, LruCacheWithACollidingHashGoesByEquality)
{
    // Every key in one bucket: get, overwrite and eviction still find
    // the entry by equality.
    struct Constant
    {
        size_t operator()(int) const { return 7; }
    };
    LruCache<int, std::string, Constant> cache(2);
    EXPECT_EQ(cache.put(1, "one"), 0u);
    EXPECT_EQ(cache.put(2, "two"), 0u);
    ASSERT_NE(cache.get(1), nullptr);
    EXPECT_EQ(*cache.get(1), "one");
    EXPECT_EQ(*cache.get(2), "two");
    EXPECT_EQ(cache.put(1, "uno"), 0u); // Overwrite; 2 is now oldest.
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.put(3, "three"), 1u);
    EXPECT_EQ(cache.peek(2), nullptr);
    ASSERT_NE(cache.peek(1), nullptr);
    EXPECT_EQ(*cache.peek(1), "uno");
    ASSERT_NE(cache.peek(3), nullptr);
    EXPECT_EQ(*cache.peek(3), "three");

    // Memo keys whose prefix hashes are forced equal: a different
    // prefix text never matches, an equal text on another handle does.
    auto prefix = [](const char *text, uint64_t hash) {
        auto p = std::make_shared<MemoKeyPrefix>(text);
        p->hash = hash;
        return std::shared_ptr<const MemoKeyPrefix>(std::move(p));
    };
    const auto a = prefix("a|", 42);
    const auto b = prefix("b|", 42);
    const auto aAgain = prefix("a|", 42);
    const MemoKeyHash hash;
    ASSERT_EQ(hash(MemoKey{a, 5}), hash(MemoKey{b, 5}));
    EXPECT_FALSE((MemoKey{a, 5} == MemoKey{b, 5}));
    LruCache<MemoKey, int, MemoKeyHash> memo(2);
    EXPECT_EQ(memo.put(MemoKey{a, 5}, 1), 0u);
    EXPECT_EQ(memo.get(MemoKey{b, 5}), nullptr);
    EXPECT_EQ(memo.put(MemoKey{b, 5}, 2), 0u);
    EXPECT_EQ(memo.size(), 2u);
    ASSERT_NE(memo.peek(MemoKey{aAgain, 5}), nullptr);
    EXPECT_EQ(*memo.peek(MemoKey{aAgain, 5}), 1);
    EXPECT_EQ(memo.peek(MemoKey{a, 6}), nullptr);
    ASSERT_NE(memo.get(MemoKey{b, 5}), nullptr);
    EXPECT_EQ(*memo.get(MemoKey{b, 5}), 2);
}

} // namespace madmax
