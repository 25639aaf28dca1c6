#include "core/batch.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/bitvec.hh"

namespace spm::core
{

namespace
{

/** Clear bits [@p from, @p from + @p count) of packed @p words. */
void
clearBits(std::uint64_t *words, std::size_t from, std::size_t count)
{
    while (count != 0) {
        const std::size_t r = from % 64;
        const std::size_t take = std::min<std::size_t>(count, 64 - r);
        const std::uint64_t span =
            take == 64 ? ~std::uint64_t(0) : (std::uint64_t(1) << take) - 1;
        words[from / 64] &= ~(span << r);
        from += take;
        count -= take;
    }
}

} // namespace

BatchMatcher::BatchMatcher() = default;

BatchMatcher::BatchMatcher(SimdIsa forced) : simd(forced) {}

std::vector<std::vector<bool>>
BatchMatcher::matchMany(const std::vector<std::vector<Symbol>> &streams,
                        const std::vector<Symbol> &pattern)
{
    std::vector<const std::vector<Symbol> *> ptrs;
    ptrs.reserve(streams.size());
    for (const std::vector<Symbol> &s : streams)
        ptrs.push_back(&s);
    return matchMany(ptrs, pattern);
}

std::vector<std::vector<bool>>
BatchMatcher::matchMany(
    const std::vector<const std::vector<Symbol> *> &streams,
    const std::vector<Symbol> &pattern)
{
    // A whole stream has no history to carry: no tails, no carries.
    runKernel(nullptr, streams, pattern);
    std::vector<std::vector<bool>> out(streams.size());
    for (std::size_t i = 0; i < streams.size(); ++i)
        unpackResultBits(hitWords.data(), segBase[i],
                         segBase[i] + streams[i]->size(), out[i]);
    return out;
}

std::vector<std::vector<bool>>
BatchMatcher::feedChunks(std::vector<StreamCarry> &carries,
                         const std::vector<std::vector<Symbol>> &chunks,
                         const std::vector<Symbol> &pattern)
{
    std::vector<const std::vector<Symbol> *> ptrs;
    ptrs.reserve(chunks.size());
    for (const std::vector<Symbol> &c : chunks)
        ptrs.push_back(&c);
    return feedChunks(carries, ptrs, pattern);
}

std::vector<std::vector<bool>>
BatchMatcher::feedChunks(
    std::vector<StreamCarry> &carries,
    const std::vector<const std::vector<Symbol> *> &chunks,
    const std::vector<Symbol> &pattern)
{
    if (carries.size() != chunks.size())
        throw std::invalid_argument(
            "BatchMatcher: " + std::to_string(carries.size()) +
            " carries for " + std::to_string(chunks.size()) + " chunks");
    const std::size_t k = pattern.size();
    const std::size_t hist = k == 0 ? 0 : k - 1;
    for (const StreamCarry &carry : carries)
        if (carry.seen != 0 && carry.patternLen != k)
            throw std::invalid_argument(
                "BatchMatcher: carry fed with pattern length " +
                std::to_string(carry.patternLen) +
                " reused with length " + std::to_string(k));

    runKernel(&carries, chunks, pattern);
    std::vector<std::vector<bool>> out(chunks.size());
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        const std::vector<Symbol> &chunk = *chunks[i];
        const std::size_t len = chunk.size();
        unpackResultBits(hitWords.data(), segBase[i], segBase[i] + len,
                         out[i]);

        // Advance the carry: keep the last min(k-1, seen) characters.
        StreamCarry &carry = carries[i];
        carry.seen += len;
        carry.patternLen = k;
        const std::size_t need = static_cast<std::size_t>(
            std::min<std::uint64_t>(hist, carry.seen));
        if (len >= need) {
            carry.tail.assign(
                chunk.end() - static_cast<std::ptrdiff_t>(need),
                chunk.end());
        } else {
            const std::size_t from_tail = need - len;
            carry.tail.erase(carry.tail.begin(),
                             carry.tail.end() -
                                 static_cast<std::ptrdiff_t>(from_tail));
            carry.tail.insert(carry.tail.end(), chunk.begin(),
                              chunk.end());
        }
    }
    return out;
}

void
BatchMatcher::runKernel(
    const std::vector<StreamCarry> *carries,
    const std::vector<const std::vector<Symbol> *> &chunks,
    const std::vector<Symbol> &pattern)
{
    // The carry tail gives every kept position its full look-back
    // window; positions still inside a stream's first k-1 characters
    // are cleared below, so the kernel's cross-stream reads there are
    // harmless.
    const std::size_t width = chunks.size();
    batchWidth = width;
    std::size_t total = 0;
    for (std::size_t i = 0; i < width; ++i)
        total += chunks[i]->size() +
                 (carries != nullptr ? (*carries)[i].tail.size() : 0);
    concat.clear();
    concat.reserve(total);
    segBase.resize(width);
    for (std::size_t i = 0; i < width; ++i) {
        if (carries != nullptr) {
            const std::vector<Symbol> &tail = (*carries)[i].tail;
            concat.insert(concat.end(), tail.begin(), tail.end());
        }
        segBase[i] = concat.size();
        concat.insert(concat.end(), chunks[i]->begin(), chunks[i]->end());
    }
    kernelChars = concat.size();
    const std::vector<std::uint64_t> &packed =
        simd.matchPacked(concat, pattern);

    // A stream's first k-1 segment positions (tail included) have no
    // full in-stream history: clear them a word mask at a time.
    hitWords.assign(packed.begin(), packed.end());
    const std::size_t hist = pattern.empty() ? 0 : pattern.size() - 1;
    std::size_t seg = 0;
    for (std::size_t i = 0; i < width; ++i) {
        const std::size_t end = segBase[i] + chunks[i]->size();
        clearBits(hitWords.data(), seg, std::min(hist, end - seg));
        seg = end;
    }
}

} // namespace spm::core
