#include "core/inference_model.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/strfmt.hh"

namespace madmax
{

void
InferenceWorkload::validate(const ModelDesc &desc) const
{
    if (promptTokens < 0) {
        fatal(strfmt("InferenceWorkload: prompt_tokens %ld is negative",
                     promptTokens));
    }
    if (promptTokens > 0 && promptTokens != desc.contextLength) {
        fatal(strfmt(
            "InferenceWorkload: prompt_tokens %ld != model context "
            "length %ld; the prompt pass is priced by the model graph, "
            "so build the model at the prompt length (set the llm "
            "config's \"context\" to %ld) or leave prompt_tokens at 0",
            promptTokens, desc.contextLength, promptTokens));
    }
    if (generateTokens < 1) {
        fatal(strfmt("InferenceWorkload: generate_tokens %ld must be "
                     ">= 1 (a serving request decodes at least one "
                     "token)",
                     generateTokens));
    }
    if (kvBytesPerElement <= 0.0) {
        fatal(strfmt("InferenceWorkload: kv_bytes_per_element %.3g must "
                     "be positive (2 = fp16 cache, 1 = fp8)",
                     kvBytesPerElement));
    }
}

long
InferenceWorkload::effectivePrompt(const ModelDesc &desc) const
{
    return promptTokens > 0 ? promptTokens
                            : static_cast<long>(desc.contextLength);
}

InferenceModel::InferenceModel(PerfModelOptions options)
    : options_(std::move(options))
{
}

TaskSpec
InferenceModel::prefillTask(const ModelDesc &desc,
                            const InferenceWorkload &workload)
{
    TaskSpec t = TaskSpec::prefill();
    // The prefill pool holds the cache only until it hands the
    // sequence off, so its capacity planning stops at the prompt.
    t.kvCapacityTokens = workload.effectivePrompt(desc);
    t.kvBytesPerElement = workload.kvBytesPerElement;
    return t;
}

TaskSpec
InferenceModel::decodeTask(const ModelDesc &desc,
                           const InferenceWorkload &workload)
{
    const long prompt = workload.effectivePrompt(desc);
    // Price the steady-state step: halfway through generation the KV
    // cache averages prompt + generate/2 tokens.
    TaskSpec t = TaskSpec::decode(prompt + workload.generateTokens / 2);
    t.kvCapacityTokens = prompt + workload.generateTokens;
    t.kvBytesPerElement = workload.kvBytesPerElement;
    return t;
}

double
InferenceModel::kvBytesForTokens(const ModelDesc &desc, long tokens,
                                 double bytes_per_element)
{
    return desc.kvBytesPerToken(bytes_per_element) *
        static_cast<double>(tokens);
}

InferenceReport
InferenceModel::evaluate(const ModelDesc &desc,
                         const InferenceWorkload &workload,
                         const ClusterSpec &prefill_cluster,
                         const ParallelPlan &prefill_plan,
                         const ClusterSpec &decode_cluster,
                         const ParallelPlan &decode_plan,
                         const std::string &deployment_name) const
{
    workload.validate(desc);

    InferenceReport out;
    out.modelName = desc.name;
    out.prefillCluster = prefill_cluster.name;
    out.decodeCluster = decode_cluster.name;
    out.clusterName = deployment_name.empty() ? prefill_cluster.name
                                              : deployment_name;
    out.disaggregated = prefill_cluster.name != decode_cluster.name;
    out.promptTokens = workload.effectivePrompt(desc);
    out.generateTokens = workload.generateTokens;
    out.kvBytesPerRequest = kvBytesForTokens(desc, out.promptTokens,
                                             workload.kvBytesPerElement);

    const TaskSpec prefill_task = prefillTask(desc, workload);
    const TaskSpec decode_task = decodeTask(desc, workload);

    PerfModel prefill_model(prefill_cluster, options_);
    PerfModel decode_model(decode_cluster, options_);
    out.prefill = prefill_model.evaluate(desc, prefill_task, prefill_plan);
    out.decode = decode_model.evaluate(desc, decode_task, decode_plan);
    out.valid = out.prefill.valid && out.decode.valid;

    // Per-decode-device bytes occupied by everything except the KV
    // cache. Colocated pools run both phases on the same silicon:
    // weights (and the FSDP gather) exist once, and the pool must fit
    // the wider of the two phases' working sets *next to* the
    // decode-capacity cache — which can OOM even when each phase fits
    // alone.
    const MemoryFootprint &pf = out.prefill.memory;
    const MemoryFootprint &df = out.decode.memory;
    double non_kv;
    if (out.disaggregated) {
        non_kv = df.total() - df.kvCacheBytes;
    } else {
        non_kv = std::max(pf.paramBytes, df.paramBytes) +
            std::max(pf.gradBytes + pf.optimizerBytes,
                     df.gradBytes + df.optimizerBytes) +
            std::max(pf.activationBytes, df.activationBytes) +
            std::max(pf.transientBytes, df.transientBytes);
        if (out.valid && non_kv + df.kvCacheBytes > df.usableCapacity)
            out.valid = false;
    }
    if (!out.valid)
        return out;

    const double batch = static_cast<double>(desc.globalBatchSize);
    const double gen = static_cast<double>(workload.generateTokens);

    // Phase rates in requests/s: one prefill iteration admits `batch`
    // prompts; one decode iteration advances `batch` sequences by one
    // token, and a request needs `gen` of those steps.
    out.prefillRate = batch / out.prefill.iterationTime;
    out.decodeRate = batch / (out.decode.iterationTime * gen);
    out.tpotSeconds = out.decode.iterationTime;

    double kv_ship_seconds = 0.0;
    if (out.disaggregated) {
        // The prompt's KV shards leave the prefill pool over its NICs
        // in parallel: per-request wire time is the per-device shard
        // over one achievable NIC rate, and the pool sustains one
        // request per aggregate-NIC transfer time.
        const double nic =
            prefill_cluster.effInterBandwidth(); // bytes/s, achievable
        const double agg_nic =
            nic * static_cast<double>(prefill_cluster.numDevices());
        kv_ship_seconds = out.kvBytesPerRequest / agg_nic;
        out.kvTransferRate = agg_nic / out.kvBytesPerRequest;
    }

    if (out.disaggregated) {
        // A pipeline: each pool works its own phase concurrently, so
        // the sustained rate is the slowest stage.
        out.requestRate = std::min(
            {out.prefillRate, out.decodeRate, out.kvTransferRate});
    } else {
        // One pool alternates phases; each request costs it prefill
        // time plus decode time, so the rates compose harmonically.
        out.requestRate =
            1.0 / (1.0 / out.prefillRate + 1.0 / out.decodeRate);
    }
    out.tokensPerSecond = out.requestRate * gen;
    out.ttftSeconds = out.prefill.iterationTime + kv_ship_seconds;
    out.e2eSeconds = out.ttftSeconds + gen * out.tpotSeconds;

    // KV-capacity ceiling on concurrency: the decode pool's headroom
    // over everything-but-KV, in per-sequence cache units. The decode
    // footprint already carries `batch / numDevices` sequences per
    // device; scale to find how many actually fit.
    if (df.kvCacheBytes > 0.0) {
        const double per_device_seqs =
            batch / static_cast<double>(decode_cluster.numDevices());
        const double kv_per_seq = df.kvCacheBytes / per_device_seqs;
        const double headroom =
            std::max(0.0, df.usableCapacity - non_kv);
        out.maxConcurrentSequences = std::floor(headroom / kv_per_seq) *
            static_cast<double>(decode_cluster.numDevices());
    }
    return out;
}

std::string
InferenceReport::summary() const
{
    std::string out;
    out += strfmt("model: %s  cluster: %s\n", modelName.c_str(),
                  clusterName.c_str());
    out += strfmt("placement: prefill=%s  decode=%s  (%s)\n",
                  prefillCluster.c_str(), decodeCluster.c_str(),
                  disaggregated ? "disaggregated" : "colocated");
    out += strfmt("workload: prompt %ld tok  generate %ld tok  "
                  "batch %ld seqs\n",
                  promptTokens, generateTokens,
                  prefill.globalBatchSize);
    if (!valid) {
        if (prefill.valid && decode.valid) {
            // Each phase fits alone; the colocated pool cannot hold
            // the wider working set next to the cache.
            out += strfmt("INVALID (colocated OOM): the pool must fit "
                          "the wider phase next to %s of KV cache in "
                          "%s usable per device — disaggregate, or "
                          "shrink the batch\n",
                          formatBytes(decode.memory.kvCacheBytes)
                              .c_str(),
                          formatBytes(decode.memory.usableCapacity)
                              .c_str());
            return out;
        }
        const PerfReport &bad = prefill.valid ? decode : prefill;
        out += strfmt("INVALID (%s phase OOM): needs %s of %s usable "
                      "per device\n",
                      prefill.valid ? "decode" : "prefill",
                      formatBytes(bad.memory.total()).c_str(),
                      formatBytes(bad.memory.usableCapacity).c_str());
        return out;
    }
    out += strfmt("throughput: %s req/s  (%s generated tokens/s)\n",
                  formatCount(requestRate).c_str(),
                  formatCount(tokensPerSecond).c_str());
    out += strfmt("rates: prefill %s req/s  decode %s req/s",
                  formatCount(prefillRate).c_str(),
                  formatCount(decodeRate).c_str());
    if (disaggregated) {
        out += strfmt("  kv-transfer %s req/s (%s/req)",
                      formatCount(kvTransferRate).c_str(),
                      formatBytes(kvBytesPerRequest).c_str());
    }
    out += "\n";
    out += strfmt("latency: ttft %s  tpot %s  e2e %s\n",
                  formatTime(ttftSeconds).c_str(),
                  formatTime(tpotSeconds).c_str(),
                  formatTime(e2eSeconds).c_str());
    out += strfmt("kv capacity: %s concurrent sequences "
                  "(decode pool, %s cache/device)\n",
                  formatCount(maxConcurrentSequences).c_str(),
                  formatBytes(decode.memory.kvCacheBytes).c_str());
    return out;
}

JsonValue
toJson(const InferenceReport &r)
{
    JsonValue out;
    out.set("model", r.modelName);
    out.set("cluster", r.clusterName);
    out.set("prefill_cluster", r.prefillCluster);
    out.set("decode_cluster", r.decodeCluster);
    out.set("disaggregated", r.disaggregated);
    out.set("valid", r.valid);
    out.set("prompt_tokens", r.promptTokens);
    out.set("generate_tokens", r.generateTokens);
    out.set("prefill", toJson(r.prefill));
    out.set("decode", toJson(r.decode));
    if (r.valid) {
        out.set("request_rate_per_sec", r.requestRate);
        out.set("tokens_per_sec", r.tokensPerSecond);
        out.set("prefill_rate_per_sec", r.prefillRate);
        out.set("decode_rate_per_sec", r.decodeRate);
        if (r.disaggregated) {
            out.set("kv_transfer_rate_per_sec", r.kvTransferRate);
            out.set("kv_bytes_per_request", r.kvBytesPerRequest);
        }
        out.set("ttft_seconds", r.ttftSeconds);
        out.set("tpot_seconds", r.tpotSeconds);
        out.set("e2e_seconds", r.e2eSeconds);
        out.set("max_concurrent_sequences", r.maxConcurrentSequences);
    }
    return out;
}

} // namespace madmax
