#include "service/checkpoint.hh"

namespace spm::service
{

namespace
{

constexpr std::uint64_t fnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t fnvPrime = 0x100000001B3ULL;

void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= fnvPrime;
    }
}

/** @p v with its bit order reversed (bit 0 <-> bit 63). */
std::uint64_t
reverseBits(std::uint64_t v)
{
    v = ((v >> 1) & 0x5555555555555555ULL) | ((v & 0x5555555555555555ULL) << 1);
    v = ((v >> 2) & 0x3333333333333333ULL) | ((v & 0x3333333333333333ULL) << 2);
    v = ((v >> 4) & 0x0F0F0F0F0F0F0F0FULL) | ((v & 0x0F0F0F0F0F0F0F0FULL) << 4);
    return __builtin_bswap64(v);
}

} // namespace

std::uint64_t
Checkpoint::digest() const
{
    std::uint64_t h = fnvOffset;
    fnvMix(h, offset);
    fnvMix(h, rung);
    fnvMix(h, beats);
    for (Symbol s : tail)
        fnvMix(h, s);
    // The emitted bits, 64 per mix with the first position in the
    // most significant bit, and a final partial word of `fill`
    // positions right-aligned under a stop bit -- the order the digest
    // has always had, so journals stay byte-identical. The packed words
    // hold position 0 in bit 0, hence the reversal.
    const std::size_t full = emitted.size() / 64;
    for (std::size_t w = 0; w < full; ++w)
        fnvMix(h, reverseBits(emitted.data()[w]));
    if (const std::size_t fill = emitted.size() % 64; fill > 0)
        fnvMix(h, (reverseBits(emitted.data()[full]) >> (64 - fill)) |
                      (std::uint64_t(1) << fill));
    return h;
}

void
ReplayJournal::record(const std::string &event)
{
    if (!active)
        return;
    entries.push_back("seq=" + std::to_string(seq++) + " " + event);
}

void
ReplayJournal::clear()
{
    entries.clear();
    seq = 0;
}

std::string
ReplayJournal::dump() const
{
    std::string out;
    for (const std::string &e : entries) {
        out += e;
        out += '\n';
    }
    return out;
}

} // namespace spm::service
