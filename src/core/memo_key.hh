/**
 * @file
 * The EvalEngine memo key (EvalEngine::memoKey). Its canonical text
 * (EvalEngine::cacheKey) is a (cluster, options, model, task) prefix
 * that every plan of one triple shares, then a short plan suffix. The
 * key holds the prefix by handle, with its hash computed once, and the
 * suffix as a packed integer, so a probe hashes two words and a key
 * copy is a reference-count increment instead of a ~300-byte string.
 */

#ifndef MADMAX_CORE_MEMO_KEY_HH
#define MADMAX_CORE_MEMO_KEY_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "util/fingerprint.hh"

namespace madmax
{

/** A key's plan-invariant head (memoKeyPrefix): its text, ending in
 *  '|', and fnv1a of that text. Immutable; shared by handle. */
struct MemoKeyPrefix
{
    std::string text;
    uint64_t hash;

    explicit MemoKeyPrefix(std::string prefixText)
        : text(std::move(prefixText)), hash(fnv1a(text))
    {
    }
};

/**
 * A memo key: a shared prefix and the plan code (the suffix's digits
 * and prefetch flag, packed). Two keys are equal exactly when their
 * texts are: the plan codes match, and the prefixes are one handle or
 * have equal hashes and equal text. The hash alone is never trusted.
 * The prefix is never null in a key the engine sees.
 */
struct MemoKey
{
    std::shared_ptr<const MemoKeyPrefix> prefix;
    uint64_t plan = 0;

    bool operator==(const MemoKey &o) const
    {
        return plan == o.plan &&
            (prefix == o.prefix ||
             (prefix->hash == o.prefix->hash &&
              prefix->text == o.prefix->text));
    }
    bool operator!=(const MemoKey &o) const { return !(*this == o); }
};

/** Hash for MemoKey containers; equal keys hash equal. */
struct MemoKeyHash
{
    size_t operator()(const MemoKey &key) const
    {
        return static_cast<size_t>(key.prefix->hash ^
                                   (key.plan * 0x9e3779b97f4a7c15ull));
    }
};

} // namespace madmax

#endif // MADMAX_CORE_MEMO_KEY_HH
