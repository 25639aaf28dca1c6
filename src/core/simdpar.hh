/**
 * @file
 * The bit-sliced matcher kernel, and the plane helpers every
 * bit-sliced realization in the repo shares.
 *
 * The chip's whole argument is one result bit per text character per
 * beat (Section 3.1); this kernel is the software counterpart that
 * sustains that rate on a modern word machine. The text is transposed
 * into bit planes -- plane b holds bit b of 64 consecutive characters
 * per machine word, the bit-serial organization of Section 3.3.2
 * turned sideways -- and every pattern position is then applied with
 * Shift-And-style word recurrences:
 *
 *     eq(c)[i] = AND_b (plane_b[i] == bit b of c)      (XNOR + AND)
 *     r[i]     = AND_j eq(p_j)[i - (k-1) + j]          (shift + AND)
 *
 * so one 64-bit AND evaluates 64 text positions at once, in the
 * spirit of the packed short-pattern matchers of Faro & Kulekci
 * ("Fast Packed String Matching for Short Patterns"). Wild cards cost
 * nothing: their factor is all-ones and is skipped. Three things make
 * it fast:
 *
 *   transpose   for alphabets of at most 8 bits the text is narrowed
 *               to bytes and transposed with compare + movemask, 16
 *               characters per instruction, instead of one character
 *               per loop iteration;
 *   recurrence  patterns with k <= 64 (one result word of history)
 *               take a fused single-pass recurrence: every plane word
 *               is read once and all pattern-position factors are
 *               combined in registers, instead of one sweep over the
 *               result stream per pattern position. Longer patterns
 *               use vector sweeps over the equality masks;
 *   arena       all scratch (byte text, planes, equality masks, the
 *               packed result) lives in a reusable member arena, so
 *               steady-state match() calls allocate nothing.
 *
 * Two tiers exist: portable uint64 and SSE2 (128-bit planes, the
 * x86-64 baseline), selected at runtime. Every tier is bit-identical
 * to core::ReferenceMatcher -- the conformance registry carries the
 * best-tier kernel and the forced scalar tier as separate oracles.
 *
 * The plane helpers below (BitPlanes, shiftedWord, shiftAnd,
 * maskLeadSlack) are the same code the kernel runs; the multi-pattern
 * dictionary sweep (multipattern/planes.hh) builds on them instead of
 * carrying its own transpose and masks.
 */

#ifndef SPM_CORE_SIMDPAR_HH
#define SPM_CORE_SIMDPAR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/matcher.hh"

namespace spm::core
{

/** Instruction-set tier the kernel dispatch can select. */
enum class SimdIsa : unsigned char
{
    Scalar, ///< portable uint64 ops
    Sse2,   ///< 128-bit planes
};

/** Printable name ("scalar", "sse2"). */
const char *simdIsaName(SimdIsa isa);

/** The best tier this CPU supports. */
SimdIsa bestSimdIsa();

/** Whether @p isa is executable on this CPU. */
bool simdIsaSupported(SimdIsa isa);

/** Smallest bit width that represents @p v (at least 1). */
unsigned symbolWidth(Symbol v);

/** OR of @p n symbols: the bits any plane must cover. */
Symbol orSymbols(const Symbol *s, std::size_t n);

/**
 * The text transposed into bit planes: plane b word w bit i is bit b
 * of character 64 w + i, zero past the end of the text. The arena is
 * reused across build() calls, so steady-state rebuilds allocate
 * nothing.
 */
class BitPlanes
{
  public:
    /**
     * Transpose @p n characters of @p text into @p planes planes on
     * tier @p isa. Alphabets of at most 8 bits are narrowed to bytes
     * first (the SSE2 tier then transposes 16 characters per
     * instruction); wider ones go one character at a time.
     */
    void build(const Symbol *text, std::size_t n, unsigned planes,
               SimdIsa isa);

    /** Plane @p b: packedWords(n) words, consecutive planes adjacent. */
    const std::uint64_t *plane(unsigned b) const
    {
        return arena.data() + static_cast<std::size_t>(b) * nw;
    }

    /** out[w] = AND_b (plane_b[w] == bit b of @p c), for every word. */
    void eqMask(Symbol c, std::uint64_t *out) const;

    /** Scratch footprint in bytes. */
    std::size_t arenaBytes() const;

  private:
    SimdIsa isa = SimdIsa::Scalar;
    std::size_t nw = 0;
    unsigned np = 0;
    std::vector<std::uint8_t> byteText; ///< narrowed text, padded
    std::vector<std::uint64_t> arena;   ///< np x nw, flat
};

/**
 * Word @p w of the mask @p eq shifted up by @p d text positions (the
 * end-offset factor of the AND recurrence); bits shifted in from
 * before the text are 0.
 */
inline std::uint64_t
shiftedWord(const std::uint64_t *eq, std::size_t d, std::size_t w)
{
    const std::size_t ws = d / 64;
    const unsigned bs = static_cast<unsigned>(d % 64);
    if (w < ws)
        return 0;
    std::uint64_t v = eq[w - ws] << bs;
    if (bs != 0 && w > ws)
        v |= eq[w - ws - 1] >> (64 - bs);
    return v;
}

/** r[w] &= shiftedWord(m, d, w) for every word w < @p nw, on @p isa. */
void shiftAnd(std::uint64_t *r, const std::uint64_t *m, std::size_t nw,
              std::size_t d, SimdIsa isa);

/**
 * Clear the bits no match can set in a packed row of a k-character
 * pattern over an n-character text: the incomplete windows i < k-1
 * and the slack past the text in the last word.
 */
void maskLeadSlack(std::uint64_t *row, std::size_t nw, std::size_t k,
                   std::size_t n);

/**
 * Bit-sliced evaluation of the Section 3.1 problem.
 *
 * Stateless between calls apart from the scratch arena, so one
 * instance serves requests of any shape -- but not from two threads
 * concurrently; the sharded service and the batch front end give each
 * worker its own instance.
 */
class SimdParallelMatcher : public Matcher
{
  public:
    /** Dispatch on the best supported tier. */
    SimdParallelMatcher();

    /**
     * Force a tier (capped at what the CPU supports); used by the
     * conformance oracles and the A/B benches. A forced instance
     * reports the tier in name() so differential reports distinguish
     * the variants.
     */
    explicit SimdParallelMatcher(SimdIsa forced);

    std::vector<bool> match(const std::vector<Symbol> &text,
                            const std::vector<Symbol> &pattern) override;

    /** The packed stream copied straight from the arena; no unpack. */
    void matchInto(const std::vector<Symbol> &text,
                   const std::vector<Symbol> &pattern,
                   BitVec &out) override;

    std::string name() const override;

    /**
     * The kernel proper: the packed result stream, 64 text positions
     * per word, word w bit i corresponding to text position 64 w + i.
     * Bits for incomplete substrings (i < k-1) are 0, as are the
     * unused bits past the text length in the last word. The returned
     * reference points into the arena and is valid until the next
     * call on this instance.
     */
    const std::vector<std::uint64_t> &matchPacked(
        const std::vector<Symbol> &text,
        const std::vector<Symbol> &pattern);

    /** Tier this instance dispatches to. */
    SimdIsa isa() const { return tier; }

    /** 64-bit-word-equivalent operations in the last matchPacked(). */
    std::uint64_t lastWordOps() const { return wordOps; }

    /** Bit planes built by the last matchPacked(). */
    unsigned lastPlanes() const { return planesBuilt; }

    /** Whether the last call took the fused short-pattern path. */
    bool lastShortPath() const { return usedShortPath; }

    /** High-water scratch footprint in bytes (proves arena reuse). */
    std::size_t arenaBytes() const;

  private:
    SimdIsa tier;
    bool forcedTier = false;

    // --- the scratch arena (reused across calls) ---------------------
    BitPlanes planeArena;
    std::vector<std::uint64_t> eqArena; ///< equality masks, flat
    std::vector<std::pair<Symbol, std::size_t>> eqIndex;
    std::vector<std::uint64_t> result;  ///< packed result words

    std::uint64_t wordOps = 0;
    unsigned planesBuilt = 0;
    bool usedShortPath = false;
};

} // namespace spm::core

#endif // SPM_CORE_SIMDPAR_HH
