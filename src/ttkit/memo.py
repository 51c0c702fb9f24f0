"""The bound of every memo.  Past it the `lru_cache` memos drop the least
recently used entry, and the module dicts kept through `kept` the oldest."""

MEMO_SIZE = 1024
_MISSING = object()


def kept(cache: dict, key, build):
    """cache[key], from build() on a miss.  The build runs before any
    eviction, so one that raises leaves the cache as it was."""
    value = cache.get(key, _MISSING)
    if value is _MISSING:
        value = build()
        while len(cache) >= MEMO_SIZE:
            del cache[next(iter(cache))]
        cache[key] = value
    return value
