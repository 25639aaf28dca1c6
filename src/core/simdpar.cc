#include "core/simdpar.hh"

#include <algorithm>
#include <cstring>
#include <string>

#if defined(__x86_64__)
#define SPM_SIMD_X86 1
#include <immintrin.h>
#else
#define SPM_SIMD_X86 0
#endif

#include "util/logging.hh"

namespace spm::core
{

namespace
{

constexpr std::size_t bitsPerWord = 64;

// ---------------------------------------------------------------------
// Portable (scalar) kernel operations. These are also the tail/edge
// helpers for the SSE2 variants, so the vector bodies stay branch-free.
// ---------------------------------------------------------------------

void
narrowScalar(const Symbol *s, std::size_t n, std::uint8_t *dst)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = static_cast<std::uint8_t>(s[i]);
}

void
transposeBytesScalar(const std::uint8_t *bytes, std::size_t nw,
                     unsigned planes, std::uint64_t *plane)
{
    for (std::size_t w = 0; w < nw; ++w) {
        std::uint64_t acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        const std::uint8_t *blk = bytes + w * bitsPerWord;
        for (unsigned i = 0; i < bitsPerWord; ++i) {
            const unsigned c = blk[i];
            for (unsigned b = 0; b < planes; ++b)
                acc[b] |= static_cast<std::uint64_t>((c >> b) & 1u) << i;
        }
        for (unsigned b = 0; b < planes; ++b)
            plane[b * nw + w] = acc[b];
    }
}

/** Alphabets wider than 8 bits skip the byte narrowing. */
void
transposeWideScalar(const Symbol *s, std::size_t n, std::size_t nw,
                    unsigned planes, std::uint64_t *plane)
{
    for (std::size_t w = 0; w < nw; ++w) {
        std::uint64_t acc[16] = {0};
        const std::size_t base = w * bitsPerWord;
        const unsigned lim = static_cast<unsigned>(
            std::min<std::size_t>(bitsPerWord, n - base));
        for (unsigned i = 0; i < lim; ++i) {
            const unsigned c = s[base + i];
            for (unsigned b = 0; b < planes; ++b)
                acc[b] |= static_cast<std::uint64_t>((c >> b) & 1u) << i;
        }
        for (unsigned b = 0; b < planes; ++b)
            plane[b * nw + w] = acc[b];
    }
}

void
eqSweepScalarRange(const std::uint64_t *plane, std::size_t nw,
                   unsigned planes, Symbol c, std::uint64_t *out,
                   std::size_t wBegin)
{
    for (std::size_t w = wBegin; w < nw; ++w) {
        std::uint64_t acc = ~std::uint64_t(0);
        for (unsigned b = 0; b < planes; ++b) {
            const std::uint64_t p = plane[b * nw + w];
            acc &= ((c >> b) & 1u) ? p : ~p;
        }
        out[w] = acc;
    }
}

void
eqSweepScalar(const std::uint64_t *plane, std::size_t nw, unsigned planes,
              Symbol c, std::uint64_t *out)
{
    eqSweepScalarRange(plane, nw, planes, c, out, 0);
}

void
shiftAndScalarRange(std::uint64_t *r, const std::uint64_t *m, std::size_t d,
                    std::size_t wBegin, std::size_t wEnd)
{
    for (std::size_t w = wBegin; w < wEnd; ++w)
        r[w] &= shiftedWord(m, d, w);
}

void
shiftAndScalar(std::uint64_t *r, const std::uint64_t *m, std::size_t nw,
               std::size_t d)
{
    shiftAndScalarRange(r, m, d, 0, nw);
}

// ---------------------------------------------------------------------
// SSE2 kernel operations (x86-64 baseline; 128-bit planes, 16-char
// compare + movemask transpose).
// ---------------------------------------------------------------------

#if SPM_SIMD_X86

void
narrowSse2(const Symbol *s, std::size_t n, std::uint8_t *dst)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i a = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(s + i));
        const __m128i b = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(s + i + 8));
        // Exact, not saturating: the caller only narrows when every
        // symbol fits in 8 bits.
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + i),
                         _mm_packus_epi16(a, b));
    }
    narrowScalar(s + i, n - i, dst + i);
}

void
transposeBytesSse2(const std::uint8_t *bytes, std::size_t nw,
                   unsigned planes, std::uint64_t *plane)
{
    for (std::size_t w = 0; w < nw; ++w) {
        const std::uint8_t *blk = bytes + w * bitsPerWord;
        const __m128i q0 =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(blk));
        const __m128i q1 =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(blk + 16));
        const __m128i q2 =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(blk + 32));
        const __m128i q3 =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(blk + 48));
        for (unsigned b = 0; b < planes; ++b) {
            const __m128i bitv =
                _mm_set1_epi8(static_cast<char>(1u << b));
            const auto lanes = [bitv](__m128i q) {
                return static_cast<std::uint32_t>(_mm_movemask_epi8(
                    _mm_cmpeq_epi8(_mm_and_si128(q, bitv), bitv)));
            };
            plane[b * nw + w] =
                static_cast<std::uint64_t>(lanes(q0)) |
                (static_cast<std::uint64_t>(lanes(q1)) << 16) |
                (static_cast<std::uint64_t>(lanes(q2)) << 32) |
                (static_cast<std::uint64_t>(lanes(q3)) << 48);
        }
    }
}

void
eqSweepSse2(const std::uint64_t *plane, std::size_t nw, unsigned planes,
            Symbol c, std::uint64_t *out)
{
    const __m128i ones = _mm_set1_epi64x(-1);
    std::size_t w = 0;
    for (; w + 2 <= nw; w += 2) {
        __m128i acc = ones;
        for (unsigned b = 0; b < planes; ++b) {
            const __m128i p = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(plane + b * nw + w));
            acc = ((c >> b) & 1u) ? _mm_and_si128(acc, p)
                                  : _mm_andnot_si128(p, acc);
        }
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + w), acc);
    }
    eqSweepScalarRange(plane, nw, planes, c, out, w);
}

void
shiftAndSse2(std::uint64_t *r, const std::uint64_t *m, std::size_t nw,
             std::size_t d)
{
    const std::size_t ws = d / bitsPerWord;
    const unsigned bs = static_cast<unsigned>(d % bitsPerWord);
    std::size_t w = std::min(nw, ws + 1);
    shiftAndScalarRange(r, m, d, 0, w);
    if (bs == 0) {
        for (; w + 2 <= nw; w += 2) {
            const __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(m + w - ws));
            const __m128i rv = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(r + w));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(r + w),
                             _mm_and_si128(rv, v));
        }
    } else {
        for (; w + 2 <= nw; w += 2) {
            const __m128i hi = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(m + w - ws));
            const __m128i lo = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(m + w - ws - 1));
            const __m128i v = _mm_or_si128(
                _mm_slli_epi64(hi, static_cast<int>(bs)),
                _mm_srli_epi64(lo, static_cast<int>(bitsPerWord - bs)));
            const __m128i rv = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(r + w));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(r + w),
                             _mm_and_si128(rv, v));
        }
    }
    shiftAndScalarRange(r, m, d, w, nw);
}

#endif // SPM_SIMD_X86

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

struct KernelOps {
    void (*narrow)(const Symbol *, std::size_t, std::uint8_t *);
    void (*transposeBytes)(const std::uint8_t *, std::size_t, unsigned,
                           std::uint64_t *);
    void (*eqSweep)(const std::uint64_t *, std::size_t, unsigned, Symbol,
                    std::uint64_t *);
    void (*shiftAnd)(std::uint64_t *, const std::uint64_t *, std::size_t,
                     std::size_t);
};

constexpr KernelOps scalarOps = {narrowScalar, transposeBytesScalar,
                                 eqSweepScalar, shiftAndScalar};
#if SPM_SIMD_X86
constexpr KernelOps sse2Ops = {narrowSse2, transposeBytesSse2, eqSweepSse2,
                               shiftAndSse2};
#endif

const KernelOps &
opsFor(SimdIsa isa)
{
#if SPM_SIMD_X86
    if (isa == SimdIsa::Sse2)
        return sse2Ops;
#endif
    (void)isa;
    return scalarOps;
}

} // namespace

const char *
simdIsaName(SimdIsa isa)
{
    return isa == SimdIsa::Sse2 ? "sse2" : "scalar";
}

bool
simdIsaSupported(SimdIsa isa)
{
    return isa == SimdIsa::Scalar || SPM_SIMD_X86 != 0;
}

SimdIsa
bestSimdIsa()
{
    return simdIsaSupported(SimdIsa::Sse2) ? SimdIsa::Sse2
                                           : SimdIsa::Scalar;
}

unsigned
symbolWidth(Symbol v)
{
    unsigned b = 1;
    while ((static_cast<unsigned>(v) >> b) != 0)
        ++b;
    return b;
}

Symbol
orSymbols(const Symbol *s, std::size_t n)
{
    // Four symbols per 64-bit load.
    std::uint64_t acc = 0;
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        std::uint64_t v0, v1, v2, v3;
        std::memcpy(&v0, s + i, 8);
        std::memcpy(&v1, s + i + 4, 8);
        std::memcpy(&v2, s + i + 8, 8);
        std::memcpy(&v3, s + i + 12, 8);
        acc |= v0 | v1 | v2 | v3;
    }
    acc |= (acc >> 32);
    acc |= (acc >> 16);
    Symbol out = static_cast<Symbol>(acc);
    for (; i < n; ++i)
        out = static_cast<Symbol>(out | s[i]);
    return out;
}

void
BitPlanes::build(const Symbol *text, std::size_t n, unsigned planes,
                 SimdIsa tier)
{
    isa = tier;
    nw = packedWords(n);
    np = planes;
    if (arena.size() < static_cast<std::size_t>(planes) * nw)
        arena.resize(static_cast<std::size_t>(planes) * nw);
    if (planes > 8) {
        transposeWideScalar(text, n, nw, planes, arena.data());
        return;
    }
    // The pad up to the word boundary is zeroed, so pad positions
    // read as character 0; callers mask their result bits off.
    const KernelOps &ops = opsFor(isa);
    if (byteText.size() < nw * bitsPerWord)
        byteText.resize(nw * bitsPerWord);
    ops.narrow(text, n, byteText.data());
    std::fill(byteText.begin() + static_cast<std::ptrdiff_t>(n),
              byteText.begin() + static_cast<std::ptrdiff_t>(nw * bitsPerWord),
              std::uint8_t(0));
    ops.transposeBytes(byteText.data(), nw, planes, arena.data());
}

void
BitPlanes::eqMask(Symbol c, std::uint64_t *out) const
{
    opsFor(isa).eqSweep(arena.data(), nw, np, c, out);
}

std::size_t
BitPlanes::arenaBytes() const
{
    return byteText.capacity() * sizeof(std::uint8_t) +
           arena.capacity() * sizeof(std::uint64_t);
}

void
shiftAnd(std::uint64_t *r, const std::uint64_t *m, std::size_t nw,
         std::size_t d, SimdIsa isa)
{
    opsFor(isa).shiftAnd(r, m, nw, d);
}

void
maskLeadSlack(std::uint64_t *row, std::size_t nw, std::size_t k,
              std::size_t n)
{
    const std::size_t lead = k - 1;
    for (std::size_t w = 0; w < lead / bitsPerWord && w < nw; ++w)
        row[w] = 0;
    if (lead / bitsPerWord < nw && lead % bitsPerWord != 0)
        row[lead / bitsPerWord] &= ~std::uint64_t(0) << (lead % bitsPerWord);
    if (n % bitsPerWord != 0)
        row[nw - 1] &= ~std::uint64_t(0) >> (bitsPerWord - n % bitsPerWord);
}

SimdParallelMatcher::SimdParallelMatcher() : tier(bestSimdIsa()) {}

SimdParallelMatcher::SimdParallelMatcher(SimdIsa forced)
    : tier(simdIsaSupported(forced) ? forced : SimdIsa::Scalar),
      forcedTier(true)
{
}

std::string
SimdParallelMatcher::name() const
{
    if (forcedTier)
        return std::string("simd-parallel-") + simdIsaName(tier);
    return "simd-parallel";
}

const std::vector<std::uint64_t> &
SimdParallelMatcher::matchPacked(const std::vector<Symbol> &text,
                                 const std::vector<Symbol> &pattern)
{
    const std::size_t n = text.size();
    const std::size_t k = pattern.size();
    const std::size_t nw = packedWords(n);
    wordOps = 0;
    planesBuilt = 0;
    usedShortPath = false;

    result.assign(nw, 0);
    if (k == 0 || n == 0 || k > n)
        return result;

    // The planes must cover every bit that can distinguish a text
    // character from a pattern character.
    Symbol seen = orSymbols(text.data(), n);
    for (Symbol c : pattern)
        if (c != wildcardSymbol)
            seen = static_cast<Symbol>(seen | c);
    const unsigned planes = symbolWidth(seen);
    planesBuilt = planes;
    planeArena.build(text.data(), n, planes, tier);
    wordOps += static_cast<std::uint64_t>(planes) * nw;

    if (k <= bitsPerWord) {
        // Short-pattern fused recurrence: every shift distance is
        // under one word, so the whole product
        //     r = AND_j shiftUp(eq(p_j), k-1-j)
        // folds into a single pass -- each plane word is loaded once,
        // each distinct symbol's equality word is formed in registers,
        // and the only cross-word state is the previous equality word
        // per symbol (the shifted-in history).
        usedShortPath = true;
        Symbol psym[bitsPerWord];
        unsigned pshift[bitsPerWord];
        std::size_t nPos = 0;
        for (std::size_t j = 0; j < k; ++j) {
            const Symbol c = pattern[j];
            if (c == wildcardSymbol)
                continue;
            const unsigned s = static_cast<unsigned>((k - 1) - j);
            std::size_t p = nPos;
            while (p > 0 && psym[p - 1] > c) {
                psym[p] = psym[p - 1];
                pshift[p] = pshift[p - 1];
                --p;
            }
            psym[p] = c;
            pshift[p] = s;
            ++nPos;
        }
        std::uint64_t prevEq[bitsPerWord] = {0};
        const std::uint64_t *pl = planeArena.plane(0);
        for (std::size_t w = 0; w < nw; ++w) {
            std::uint64_t acc = ~std::uint64_t(0);
            std::size_t idx = 0;
            std::size_t g = 0;
            while (idx < nPos) {
                const Symbol c = psym[idx];
                std::uint64_t eq = ~std::uint64_t(0);
                for (unsigned b = 0; b < planes; ++b) {
                    const std::uint64_t p = pl[b * nw + w];
                    eq &= ((c >> b) & 1u) ? p : ~p;
                }
                const std::uint64_t prev = prevEq[g];
                do {
                    const unsigned s = pshift[idx];
                    acc &= s != 0
                               ? ((eq << s) | (prev >> (bitsPerWord - s)))
                               : eq;
                    ++idx;
                } while (idx < nPos && psym[idx] == c);
                prevEq[g] = eq;
                ++g;
            }
            result[w] = acc;
        }
        std::size_t nGroups = 0;
        for (std::size_t i = 0; i < nPos; ++i)
            if (i == 0 || psym[i] != psym[i - 1])
                ++nGroups;
        wordOps += nw * (static_cast<std::uint64_t>(nGroups) * planes +
                         nPos);
    } else {
        // Long patterns: equality masks cached per distinct symbol,
        // then one vectorized shifted-AND sweep per non-wild pattern
        // position.
        std::fill(result.begin(), result.end(), ~std::uint64_t(0));
        eqIndex.clear();
        for (Symbol c : pattern) {
            if (c == wildcardSymbol)
                continue;
            bool known = false;
            for (const auto &e : eqIndex)
                if (e.first == c) {
                    known = true;
                    break;
                }
            if (!known)
                eqIndex.emplace_back(c, eqIndex.size() * nw);
        }
        if (eqArena.size() < eqIndex.size() * nw)
            eqArena.resize(eqIndex.size() * nw);
        for (const auto &e : eqIndex) {
            planeArena.eqMask(e.first, eqArena.data() + e.second);
            wordOps += static_cast<std::uint64_t>(planes) * nw;
        }
        for (std::size_t j = 0; j < k; ++j) {
            const Symbol c = pattern[j];
            if (c == wildcardSymbol)
                continue;
            const std::uint64_t *m = nullptr;
            for (const auto &e : eqIndex)
                if (e.first == c) {
                    m = eqArena.data() + e.second;
                    break;
                }
            shiftAnd(result.data(), m, nw, (k - 1) - j, tier);
            wordOps += nw;
        }
    }

    maskLeadSlack(result.data(), nw, k, n);
    return result;
}

std::vector<bool>
SimdParallelMatcher::match(const std::vector<Symbol> &text,
                           const std::vector<Symbol> &pattern)
{
    std::vector<bool> bits;
    unpackResultBits(matchPacked(text, pattern).data(), 0, text.size(),
                     bits);
    return bits;
}

void
SimdParallelMatcher::matchInto(const std::vector<Symbol> &text,
                               const std::vector<Symbol> &pattern,
                               BitVec &out)
{
    out.assignWords(matchPacked(text, pattern).data(), text.size());
}

std::size_t
SimdParallelMatcher::arenaBytes() const
{
    return planeArena.arenaBytes() +
           (eqArena.capacity() + result.capacity()) * sizeof(std::uint64_t) +
           eqIndex.capacity() * sizeof(eqIndex[0]);
}

} // namespace spm::core
