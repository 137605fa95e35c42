#include "clustering/union_find.hh"

#include <numeric>
#include <stdexcept>

#include "util/assert.hh"

namespace dnastore
{

UnionFind::UnionFind(std::size_t count)
    : parent(count), size(count, 1), sets(count)
{
    if (count > UINT32_MAX)
        throw std::invalid_argument("UnionFind: too many elements");
    std::iota(parent.begin(), parent.end(), 0u);
}

std::size_t
UnionFind::find(std::size_t x)
{
    DNASTORE_DCHECK(x < parent.size(), "find() element out of range");
    while (parent[x] != x) {
        parent[x] = parent[parent[x]]; // path halving
        x = parent[x];
    }
    return x;
}

std::size_t
UnionFind::merge(std::size_t a, std::size_t b)
{
    std::size_t ra = find(a);
    std::size_t rb = find(b);
    if (ra == rb)
        return ra;
    if (size[ra] < size[rb])
        std::swap(ra, rb);
    parent[rb] = static_cast<std::uint32_t>(ra);
    size[ra] += size[rb];
    DNASTORE_ASSERT(sets > 0, "merge() with no sets left to merge");
    --sets;
    DNASTORE_DCHECK(size[ra] <= parent.size(),
                    "merged set larger than the universe");
    return ra;
}

bool
UnionFind::connected(std::size_t a, std::size_t b)
{
    return find(a) == find(b);
}

std::size_t
UnionFind::sizeOf(std::size_t x)
{
    return size[find(x)];
}

std::vector<std::vector<std::uint32_t>>
UnionFind::groups()
{
    std::vector<std::vector<std::uint32_t>> out;
    out.reserve(sets);
    std::vector<std::int64_t> root_slot(parent.size(), -1);
    for (std::size_t i = 0; i < parent.size(); ++i) {
        const std::size_t root = find(i);
        if (root_slot[root] < 0) {
            root_slot[root] = static_cast<std::int64_t>(out.size());
            out.emplace_back();
        }
        out[static_cast<std::size_t>(root_slot[root])].push_back(
            static_cast<std::uint32_t>(i));
    }
    DNASTORE_ASSERT(out.size() == sets,
                    "set counter out of sync with group count");
    return out;
}

} // namespace dnastore
