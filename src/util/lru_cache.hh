/**
 * @file
 * Small header-only LRU map, the bookkeeping half of the serving
 * layer's parsed-config caches and the EvalEngine memo. @p Hash only
 * buckets keys; lookups, overwrites and evictions go by Key equality.
 * Not thread-safe; callers hold their own mutex, which they need
 * anyway to make lookup-then-insert atomic.
 */

#ifndef MADMAX_UTIL_LRU_CACHE_HH
#define MADMAX_UTIL_LRU_CACHE_HH

#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace madmax
{

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache
{
  public:
    explicit LruCache(size_t capacity) : capacity_(capacity) {}

    /** Pointer to the value (touched most-recent), or nullptr.
     *  Invalidated by the next put(). */
    Value *get(const Key &key)
    {
        auto it = map_.find(key);
        if (it == map_.end())
            return nullptr;
        order_.splice(order_.begin(), order_, it->second.second);
        return &it->second.first;
    }

    /** Peek without touching recency (for read-only probes). */
    const Value *peek(const Key &key) const
    {
        auto it = map_.find(key);
        return it == map_.end() ? nullptr : &it->second.first;
    }

    /** Insert or overwrite; evicts least-recent beyond capacity.
     *  Returns the number of evictions (0 or 1). */
    size_t put(const Key &key, Value value)
    {
        auto it = map_.find(key);
        if (it != map_.end()) {
            it->second.first = std::move(value);
            order_.splice(order_.begin(), order_, it->second.second);
            return 0;
        }
        // The recency slot first, so a throwing emplace leaves both
        // containers as they were.
        order_.push_front(nullptr);
        try {
            it = map_.emplace(key, std::make_pair(std::move(value),
                                                  order_.begin()))
                     .first;
        } catch (...) {
            order_.pop_front();
            throw;
        }
        order_.front() = &it->first;
        size_t evicted = 0;
        while (map_.size() > capacity_) {
            map_.erase(map_.find(*order_.back()));
            order_.pop_back();
            ++evicted;
        }
        return evicted;
    }

    /** Drop every entry. */
    void clear()
    {
        map_.clear();
        order_.clear();
    }

    size_t size() const { return map_.size(); }
    size_t capacity() const { return capacity_; }

  private:
    using Order = std::list<const Key *>;

    size_t capacity_;
    /// Front = most recently used. Points at the map's own node keys,
    /// which stay put across rehashing, so each key is stored once.
    Order order_;
    std::unordered_map<Key, std::pair<Value, typename Order::iterator>,
                       Hash>
        map_;
};

} // namespace madmax

#endif // MADMAX_UTIL_LRU_CACHE_HH
