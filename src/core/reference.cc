#include "core/reference.hh"

namespace spm::core
{

namespace
{

/** Call @p hit(i) for every i where the r_i definition holds. */
template <typename Hit>
void
evaluate(const std::vector<Symbol> &text, const std::vector<Symbol> &pattern,
         Hit hit)
{
    const std::size_t n = text.size();
    const std::size_t len = pattern.size();
    if (len == 0 || len > n)
        return;

    for (std::size_t i = len - 1; i < n; ++i) {
        bool all = true;
        for (std::size_t j = 0; j < len && all; ++j)
            all = symbolMatches(pattern[j], text[i - (len - 1) + j]);
        if (all)
            hit(i);
    }
}

} // namespace

std::vector<bool>
ReferenceMatcher::match(const std::vector<Symbol> &text,
                        const std::vector<Symbol> &pattern)
{
    std::vector<bool> r(text.size(), false);
    evaluate(text, pattern, [&r](std::size_t i) { r[i] = true; });
    return r;
}

void
ReferenceMatcher::matchInto(const std::vector<Symbol> &text,
                            const std::vector<Symbol> &pattern,
                            BitVec &out)
{
    out.assign(text.size());
    evaluate(text, pattern, [&out](std::size_t i) { out.set(i, true); });
}

std::vector<unsigned>
referenceMatchCounts(const std::vector<Symbol> &text,
                     const std::vector<Symbol> &pattern)
{
    const std::size_t n = text.size();
    const std::size_t len = pattern.size();
    std::vector<unsigned> c(n, 0);
    if (len == 0 || len > n)
        return c;

    for (std::size_t i = len - 1; i < n; ++i) {
        unsigned count = 0;
        for (std::size_t j = 0; j < len; ++j) {
            if (symbolMatches(pattern[j], text[i - (len - 1) + j]))
                ++count;
        }
        c[i] = count;
    }
    return c;
}

std::vector<std::int64_t>
referenceCorrelation(const std::vector<std::int64_t> &text,
                     const std::vector<std::int64_t> &pattern)
{
    const std::size_t n = text.size();
    const std::size_t len = pattern.size();
    std::vector<std::int64_t> r(n, 0);
    if (len == 0 || len > n)
        return r;

    for (std::size_t i = len - 1; i < n; ++i) {
        std::int64_t sum = 0;
        for (std::size_t j = 0; j < len; ++j) {
            const std::int64_t d =
                text[i - (len - 1) + j] - pattern[j];
            sum += d * d;
        }
        r[i] = sum;
    }
    return r;
}

} // namespace spm::core
