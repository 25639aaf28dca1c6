#pragma once
/**
 * Bit-sliced multi-pattern realization on the single-pattern kernel's
 * plane code (core/simdpar.hh): the text is transposed into bit
 * planes once, equality masks are built once per distinct character
 * class, and the per-pattern AND chains are fused through a reversed
 * (suffix) trie so dictionaries sharing suffix structure cost less
 * than p independent scans.
 *
 * A pattern's window bit r_p[i] factors by end offset d = k_p-1-j:
 * r_p = AND_d shiftUp(eq(p[k_p-1-d]), d), so two patterns with a
 * common suffix share a prefix of their factor chains -- exactly a
 * trie over reversed patterns.  Each trie node holds one partial AND;
 * a topological walk per 64-position word evaluates every chain with
 * one AND per node instead of one per pattern character.  Wild-card
 * positions contribute an all-ones factor and collapse to a shared
 * wild edge.  Up to 64 patterns are fused per sweep; larger
 * dictionaries run ceil(p/64) sweeps over the same planes.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/simdpar.hh"
#include "multipattern/dict.hh"
#include "util/types.hh"

namespace spm::multipattern
{

class BitSlicedDictMatcher final : public DictMatcher
{
  public:
    /** Patterns fused per sweep (one result lane per packed word bit
     *  is not required -- the cap bounds trie width per walk). */
    static constexpr std::size_t fusedGroupPatterns = 64;

    /** @p dedup_planes disables suffix-trie node merging and
     *  equality-mask caching when false; the no-dedup variant exists
     *  so conformance can prove dedup changes cost, never hits. */
    explicit BitSlicedDictMatcher(bool dedup_planes = true)
        : dedup(dedup_planes)
    {
    }

    DictHits matchAll(const std::vector<Symbol> &text,
                      const DictPatterns &dict) override
    {
        return matchFrom(text, dict, 0);
    }
    std::string name() const override
    {
        return dedup ? "dict-planes" : "dict-planes-nodedup";
    }

    /** Sweep all of @p text but report only positions [from, n):
     *  bits[p][c] = pattern p ends at text position from + c.  The
     *  chunk carry (feedDictChunk) extracts its chunk this way
     *  straight from the packed rows. */
    DictHits matchFrom(const std::vector<Symbol> &text,
                       const DictPatterns &dict, std::size_t from);

    /** Counters from the last match, for telemetry and the E19
     *  dedup ablation.  lastHits counts the reported positions only. */
    std::uint64_t lastHits() const { return hits; }
    unsigned lastPlanes() const { return planesBuilt; }
    std::size_t lastEqMasks() const { return eqBuilt; }
    std::size_t lastTrieNodes() const { return trieNodes; }
    std::size_t lastPatternChars() const { return patternChars; }
    std::size_t lastSweeps() const { return sweeps; }
    std::uint64_t lastWordOps() const { return wordOps; }
    std::size_t arenaBytes() const;

  private:
    struct TrieNode {
        std::uint32_t parent; // index into the walk order; 0 = root
        std::uint32_t classId; // index into classSyms; wildClass = wild
        std::uint32_t offset;  // end offset d of this factor
    };

    /** Leave every pattern's masked hit row in rowArena. */
    void sweep(const std::vector<Symbol> &text, const DictPatterns &dict);

    const bool dedup;
    const core::SimdIsa tier = core::bestSimdIsa();

    std::uint64_t hits = 0;
    unsigned planesBuilt = 0;
    std::size_t eqBuilt = 0;
    std::size_t trieNodes = 0;
    std::size_t patternChars = 0;
    std::size_t sweeps = 0;
    std::uint64_t wordOps = 0;

    // Arenas reused across calls.
    core::BitPlanes planeArena;
    std::vector<std::uint64_t> eqArena;
    std::vector<std::pair<Symbol, std::size_t>> eqIndex;
    std::vector<std::uint64_t> rowArena;
    std::vector<std::uint64_t> valArena;
    std::vector<TrieNode> trie;
    std::vector<std::uint32_t> termNode;
    std::vector<Symbol> classSyms;
};

} // namespace spm::multipattern
