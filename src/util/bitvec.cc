#include "util/bitvec.hh"

#include <bit>

#include "util/logging.hh"

namespace spm
{

namespace
{

/** The low @p n bits set (n <= 64). */
std::uint64_t
lowMask(std::size_t n)
{
    return n >= 64 ? ~std::uint64_t(0) : (std::uint64_t(1) << n) - 1;
}

} // namespace

std::uint64_t
unpackResultBits(const std::uint64_t *packed, std::size_t from,
                 std::size_t n, std::vector<bool> &out)
{
    spm_assert(from <= n, "unpack start ", from, " past text end ", n);
    out.assign(n - from, false);
    std::uint64_t hits = 0;
    const std::size_t nw = packedWords(n);
    const std::size_t w0 = from / 64;
    for (std::size_t w = w0; w < nw; ++w) {
        std::uint64_t word = packed[w];
        if (w == w0)
            word &= ~std::uint64_t(0) << (from % 64);
        if (w + 1 == nw)
            word &= lowMask(n - w * 64);
        while (word != 0) {
            const auto i = static_cast<std::size_t>(std::countr_zero(word));
            out[w * 64 + i - from] = true;
            word &= word - 1;
            ++hits;
        }
    }
    return hits;
}

BitVec::BitVec(std::size_t n, bool value)
{
    resize(n, value);
}

BitVec
BitVec::fromString(const std::string &bits)
{
    BitVec v;
    for (char c : bits) {
        spm_assert(c == '0' || c == '1',
                   "BitVec::fromString: bad character '", c, "'");
        v.pushBack(c == '1');
    }
    return v;
}

BitVec
BitVec::pack(const std::vector<bool> &bits)
{
    BitVec v(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i)
        if (bits[i])
            v.words[wordIndex(i)] |= bitMask(i);
    return v;
}

bool
BitVec::get(std::size_t idx) const
{
    spm_assert(idx < numBits, "BitVec::get: index ", idx, " out of range ",
               numBits);
    return (words[wordIndex(idx)] & bitMask(idx)) != 0;
}

void
BitVec::set(std::size_t idx, bool value)
{
    spm_assert(idx < numBits, "BitVec::set: index ", idx, " out of range ",
               numBits);
    if (value)
        words[wordIndex(idx)] |= bitMask(idx);
    else
        words[wordIndex(idx)] &= ~bitMask(idx);
}

void
BitVec::pushBack(bool value)
{
    if (numBits % bitsPerWord == 0)
        words.push_back(0);
    ++numBits;
    set(numBits - 1, value);
}

void
BitVec::clear()
{
    words.clear();
    numBits = 0;
}

void
BitVec::assignWords(const std::uint64_t *packed, std::size_t n)
{
    words.assign(packed, packed + packedWords(n));
    numBits = n;
    trimTail();
}

std::uint64_t
BitVec::wordAt(std::size_t pos) const
{
    const std::size_t q = wordIndex(pos);
    const unsigned r = static_cast<unsigned>(pos % bitsPerWord);
    if (q >= words.size())
        return 0;
    std::uint64_t v = words[q] >> r;
    if (r != 0 && q + 1 < words.size())
        v |= words[q + 1] << (bitsPerWord - r);
    return v;
}

void
BitVec::append(const BitVec &src, std::size_t from, std::size_t count)
{
    spm_assert(&src != this, "BitVec::append from itself");
    spm_assert(from <= src.numBits && count <= src.numBits - from,
               "BitVec::append: range [", from, ", ", from + count,
               ") past source end ", src.numBits);
    if (count == 0)
        return;
    // Every 64 source bits land in the low bits of one destination word
    // above the current fill and the high bits of the next.
    const unsigned off = static_cast<unsigned>(numBits % bitsPerWord);
    std::size_t dw = wordIndex(numBits);
    numBits += count;
    words.resize(packedWords(numBits), 0);
    for (std::size_t done = 0; done < count; done += bitsPerWord, ++dw) {
        const std::uint64_t v =
            src.wordAt(from + done) & lowMask(count - done);
        words[dw] |= v << off;
        if (off != 0 && dw + 1 < words.size())
            words[dw + 1] |= v >> (bitsPerWord - off);
    }
}

bool
BitVec::rangeEquals(std::size_t pos, const BitVec &other,
                    std::size_t other_pos, std::size_t count) const
{
    spm_assert(pos <= numBits && count <= numBits - pos &&
                   other_pos <= other.numBits &&
                   count <= other.numBits - other_pos,
               "BitVec::rangeEquals: range past a vector end");
    for (std::size_t done = 0; done < count; done += bitsPerWord)
        if (((wordAt(pos + done) ^ other.wordAt(other_pos + done)) &
             lowMask(count - done)) != 0)
            return false;
    return true;
}

void
BitVec::resize(std::size_t n, bool value)
{
    std::size_t old_bits = numBits;
    std::size_t new_words = (n + bitsPerWord - 1) / bitsPerWord;
    words.resize(new_words, value ? ~std::uint64_t(0) : 0);
    numBits = n;
    if (value && n > old_bits) {
        // Bits in the partially used old tail word must be set by hand.
        for (std::size_t i = old_bits; i < n && i % bitsPerWord != 0; ++i)
            set(i, true);
    }
    trimTail();
}

std::size_t
BitVec::popcount() const
{
    std::size_t total = 0;
    for (std::uint64_t w : words)
        total += static_cast<std::size_t>(std::popcount(w));
    return total;
}

std::size_t
BitVec::findFirst() const
{
    for (std::size_t wi = 0; wi < words.size(); ++wi) {
        if (words[wi] != 0) {
            return wi * bitsPerWord +
                   static_cast<std::size_t>(std::countr_zero(words[wi]));
        }
    }
    return numBits;
}

BitVec &
BitVec::operator&=(const BitVec &other)
{
    spm_assert(numBits == other.numBits, "BitVec size mismatch");
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] &= other.words[i];
    return *this;
}

BitVec &
BitVec::operator|=(const BitVec &other)
{
    spm_assert(numBits == other.numBits, "BitVec size mismatch");
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] |= other.words[i];
    return *this;
}

BitVec &
BitVec::operator^=(const BitVec &other)
{
    spm_assert(numBits == other.numBits, "BitVec size mismatch");
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] ^= other.words[i];
    return *this;
}

void
BitVec::flip()
{
    for (auto &w : words)
        w = ~w;
    trimTail();
}

bool
BitVec::operator==(const BitVec &other) const
{
    return numBits == other.numBits && words == other.words;
}

std::string
BitVec::toString() const
{
    std::string s;
    s.reserve(numBits);
    for (std::size_t i = 0; i < numBits; ++i)
        s.push_back(get(i) ? '1' : '0');
    return s;
}

void
BitVec::trimTail()
{
    std::size_t used = numBits % bitsPerWord;
    if (used != 0 && !words.empty())
        words.back() &= (std::uint64_t(1) << used) - 1;
}

} // namespace spm
