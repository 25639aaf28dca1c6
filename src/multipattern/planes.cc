#include "multipattern/planes.hh"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "core/simdpar.hh"

namespace spm::multipattern
{

namespace
{

constexpr std::uint32_t wildClass = 0xFFFFFFFFu;
constexpr std::uint32_t rootNode = 0xFFFFFFFFu;
constexpr std::uint32_t noTerm = 0xFFFFFFFFu;

} // namespace

void
BitSlicedDictMatcher::sweep(const std::vector<Symbol> &text,
                            const DictPatterns &dict)
{
    const std::size_t n = text.size();
    const std::size_t nw = packedWords(n);
    const std::size_t p = dict.size();

    planesBuilt = 0;
    eqBuilt = 0;
    trieNodes = 0;
    patternChars = 0;
    sweeps = 0;
    wordOps = 0;

    for (const auto &member : dict)
        patternChars += member.size();
    if (n == 0 || p == 0)
        return;

    // One transpose covers every pattern, on the same plane code the
    // single-pattern kernel runs.
    Symbol seen = core::orSymbols(text.data(), n);
    for (const auto &member : dict)
        for (Symbol c : member)
            if (c != wildcardSymbol)
                seen = static_cast<Symbol>(seen | c);
    const unsigned planes = core::symbolWidth(seen);
    planesBuilt = planes;
    planeArena.build(text.data(), n, planes, tier);

    auto buildEqInto = [&](Symbol c, std::uint64_t *m) {
        planeArena.eqMask(c, m);
        ++eqBuilt;
        wordOps += static_cast<std::uint64_t>(planes) * nw;
    };

    if (rowArena.size() < p * nw)
        rowArena.resize(p * nw);
    std::fill(rowArena.begin(),
              rowArena.begin() + static_cast<std::ptrdiff_t>(p * nw), 0);

    if (!dedup) {
        // Ablation variant: every pattern runs its own single-pattern
        // AND chain with its own equality masks -- p independent
        // scans sharing only the transpose.  Must produce the exact
        // hit set of the deduplicated sweep; only the cost differs.
        for (std::size_t pi = 0; pi < p; ++pi) {
            const auto &member = dict[pi];
            const std::size_t k = member.size();
            trieNodes += k;
            if (k == 0 || k > n)
                continue;
            std::uint64_t *row = rowArena.data() + pi * nw;
            std::fill(row, row + nw, ~std::uint64_t(0));
            eqIndex.clear();
            for (std::size_t j = 0; j < k; ++j) {
                const Symbol c = member[j];
                if (c == wildcardSymbol)
                    continue;
                std::size_t off = eqArena.size();
                bool found = false;
                for (const auto &entry : eqIndex)
                    if (entry.first == c) {
                        off = entry.second;
                        found = true;
                        break;
                    }
                if (!found) {
                    off = eqIndex.size() * nw;
                    if (eqArena.size() < off + nw)
                        eqArena.resize(off + nw);
                    buildEqInto(c, eqArena.data() + off);
                    eqIndex.emplace_back(c, off);
                }
                core::shiftAnd(row, eqArena.data() + off, nw, (k - 1) - j,
                               tier);
                wordOps += nw;
            }
            core::maskLeadSlack(row, nw, k, n);
            ++sweeps;
        }
    } else {
        // Shared character-class planes: one equality mask per
        // distinct literal symbol across the whole dictionary.
        classSyms.clear();
        eqIndex.clear();
        auto classOf = [&](Symbol c) -> std::uint32_t {
            for (std::size_t i = 0; i < classSyms.size(); ++i)
                if (classSyms[i] == c)
                    return static_cast<std::uint32_t>(i);
            const auto id = static_cast<std::uint32_t>(classSyms.size());
            classSyms.push_back(c);
            const std::size_t off = static_cast<std::size_t>(id) * nw;
            if (eqArena.size() < off + nw)
                eqArena.resize(off + nw);
            buildEqInto(c, eqArena.data() + off);
            return id;
        };

        if (termNode.size() < p)
            termNode.resize(p);

        // Fuse patterns in groups of <= fusedGroupPatterns: each
        // group builds a trie over reversed patterns (children keyed
        // by character class; depth encodes the end offset), so
        // shared suffixes share one partial-AND node.
        for (std::size_t g0 = 0; g0 < p; g0 += fusedGroupPatterns) {
            const std::size_t g1 = std::min(p, g0 + fusedGroupPatterns);
            trie.clear();
            // children[v] lists (classId, node) edges of v; slot 0
            // stands for the virtual root.
            std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
                children(1);
            for (std::size_t pi = g0; pi < g1; ++pi) {
                const auto &member = dict[pi];
                const std::size_t k = member.size();
                if (k == 0 || k > n) {
                    termNode[pi] = noTerm;
                    continue;
                }
                std::uint32_t node = rootNode;
                for (std::size_t d = 0; d < k; ++d) {
                    const Symbol c = member[k - 1 - d];
                    const std::uint32_t cls =
                        c == wildcardSymbol ? wildClass : classOf(c);
                    auto &kids =
                        children[node == rootNode ? 0 : node + 1];
                    std::uint32_t next = rootNode;
                    for (const auto &edge : kids)
                        if (edge.first == cls) {
                            next = edge.second;
                            break;
                        }
                    if (next == rootNode) {
                        next = static_cast<std::uint32_t>(trie.size());
                        trie.push_back({node, cls,
                                        static_cast<std::uint32_t>(d)});
                        kids.emplace_back(cls, next);
                        children.emplace_back();
                    }
                    node = next;
                }
                termNode[pi] = node;
            }
            trieNodes += trie.size();
            if (trie.empty())
                continue;
            ++sweeps;

            // Topological walk per word: nodes were appended parent
            // first, so a single pass evaluates every partial AND.
            if (valArena.size() < trie.size())
                valArena.resize(trie.size());
            for (std::size_t w = 0; w < nw; ++w) {
                for (std::size_t v = 0; v < trie.size(); ++v) {
                    const TrieNode &node = trie[v];
                    std::uint64_t val = node.parent == rootNode
                                            ? ~std::uint64_t(0)
                                            : valArena[node.parent];
                    if (node.classId != wildClass)
                        val &= core::shiftedWord(
                            eqArena.data() +
                                static_cast<std::size_t>(node.classId) * nw,
                            node.offset, w);
                    valArena[v] = val;
                }
                for (std::size_t pi = g0; pi < g1; ++pi)
                    if (termNode[pi] != noTerm)
                        rowArena[pi * nw + w] = valArena[termNode[pi]];
            }
            wordOps += static_cast<std::uint64_t>(trie.size()) * nw;
        }

        for (std::size_t pi = 0; pi < p; ++pi)
            if (termNode[pi] != noTerm)
                core::maskLeadSlack(rowArena.data() + pi * nw, nw,
                                    dict[pi].size(), n);
    }
}

DictHits
BitSlicedDictMatcher::matchFrom(const std::vector<Symbol> &text,
                                const DictPatterns &dict, std::size_t from)
{
    const std::size_t n = text.size();
    if (from > n)
        throw std::invalid_argument(
            "matchFrom: start past the end of the text");
    sweep(text, dict);

    const std::size_t nw = packedWords(n);
    hits = 0;
    DictHits out;
    out.bits.resize(dict.size());
    for (std::size_t pi = 0; pi < dict.size(); ++pi)
        hits += unpackResultBits(rowArena.data() + pi * nw, from, n,
                                       out.bits[pi]);
    return out;
}

std::size_t
BitSlicedDictMatcher::arenaBytes() const
{
    return planeArena.arenaBytes() +
           (eqArena.capacity() + rowArena.capacity() +
            valArena.capacity()) *
               sizeof(std::uint64_t) +
           eqIndex.capacity() * sizeof(eqIndex[0]) +
           trie.capacity() * sizeof(trie[0]) +
           termNode.capacity() * sizeof(termNode[0]) +
           classSyms.capacity() * sizeof(classSyms[0]);
}

} // namespace spm::multipattern
