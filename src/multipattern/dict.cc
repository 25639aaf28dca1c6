#include "multipattern/dict.hh"

#include <algorithm>
#include <stdexcept>

#include "core/reference.hh"
#include "multipattern/planes.hh"

namespace spm::multipattern
{

std::uint64_t
DictHits::totalHits() const
{
    std::uint64_t total = 0;
    for (const auto &row : bits)
        for (bool b : row)
            total += b ? 1 : 0;
    return total;
}

std::size_t
longestPattern(const DictPatterns &dict)
{
    std::size_t kmax = 0;
    for (const auto &p : dict)
        kmax = std::max(kmax, p.size());
    return kmax;
}

DictHits
NaiveDictMatcher::matchAll(const std::vector<Symbol> &text,
                           const DictPatterns &dict)
{
    core::ReferenceMatcher ref;
    DictHits hits;
    hits.bits.reserve(dict.size());
    for (const auto &pattern : dict)
        hits.bits.push_back(ref.match(text, pattern));
    return hits;
}

DictHits
feedDictChunk(BitSlicedDictMatcher &m, DictStreamState &state,
              const std::vector<Symbol> &chunk, const DictPatterns &dict)
{
    const std::size_t kmax = longestPattern(dict);
    const std::size_t keep = kmax == 0 ? 0 : kmax - 1;
    if (state.tail.size() > keep)
        throw std::invalid_argument(
            "feedDictChunk: carry tail longer than dictionary allows");

    // Replay the carried tail plus the chunk.  The tail holds
    // min(kmax - 1, seen) characters: either every window ending in
    // the chunk has its full history in the replay window, or the
    // window IS the whole stream so far -- in both cases the
    // window-local bit at skip + c equals the stream-global bit at
    // state.seen + c, including the leading always-false positions.
    std::vector<Symbol> window;
    window.reserve(state.tail.size() + chunk.size());
    window.insert(window.end(), state.tail.begin(), state.tail.end());
    window.insert(window.end(), chunk.begin(), chunk.end());

    // The sweep covers the whole window; extraction reports only the
    // chunk's positions, straight from the packed rows.
    const std::size_t skip = state.tail.size();
    DictHits out = m.matchFrom(window, dict, skip);

    state.seen += chunk.size();
    if (keep == 0) {
        state.tail.clear();
    } else if (window.size() <= keep) {
        state.tail = std::move(window);
    } else {
        state.tail.assign(window.end() - static_cast<std::ptrdiff_t>(keep),
                          window.end());
    }
    return out;
}

} // namespace spm::multipattern
