/**
 * @file
 * A compact dynamic bit vector.
 *
 * The pattern matcher's output is "a stream of bits, each of which
 * corresponds to one of the characters in the text string" (Section 3.1).
 * BitVec is the packed form of that stream: the serving layer carries a
 * window's bits, a streaming request's accumulated stream and a sharded
 * request's stitched slices in it, and moves ranges between them a
 * shifted word at a time. Bit i of word w is position 64 w + i -- the
 * layout of the bit-sliced kernels' packed output -- and the bits past
 * size() in the last word are always clear, so equality is a word
 * compare.
 *
 * The Matcher interface still returns std::vector<bool>; unpack() (and
 * unpackResultBits below it) expands a packed stream into one sparsely.
 */

#ifndef SPM_UTIL_BITVEC_HH
#define SPM_UTIL_BITVEC_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace spm
{

/** Packed words needed for @p n positions, 64 per word. */
inline std::size_t
packedWords(std::size_t n)
{
    return (n + 63) / 64;
}

/**
 * Expand positions [@p from, @p n) of a packed result stream (bit i of
 * word w is position 64 w + i; packedWords(n) words at @p packed) into
 * the Matcher-interface bit vector @p out, resized to n - from entries:
 * out[c] is position from + c. Bits below @p from in its word and bits
 * at or past @p n in the last word are ignored, so the range may be
 * one stream's segment in the middle of a longer packed text (the
 * batch matcher's concatenation). Sparse: the vector is zero-filled,
 * then only the set bits, found with count-trailing-zeros, are
 * written, so the cost is O(words + matches), not O(n). Returns the
 * number of set bits written.
 */
std::uint64_t unpackResultBits(const std::uint64_t *packed,
                               std::size_t from, std::size_t n,
                               std::vector<bool> &out);

/**
 * Dynamically sized vector of bits with word-parallel bulk operations.
 *
 * Unlike std::vector<bool>, BitVec exposes population count, word-wise
 * logical operators, and a printable form, all of which the benches and
 * tests rely on.
 */
class BitVec
{
  public:
    BitVec() = default;

    /** Construct with @p n bits, all set to @p value. */
    explicit BitVec(std::size_t n, bool value = false);

    /** Construct from a string of '0'/'1' characters. */
    static BitVec fromString(const std::string &bits);

    /** Pack a Matcher-interface bit vector. */
    static BitVec pack(const std::vector<bool> &bits);

    /** Number of bits held. */
    std::size_t size() const { return numBits; }

    /** True when no bits are held. */
    bool empty() const { return numBits == 0; }

    /** Read the bit at @p idx. */
    bool get(std::size_t idx) const;

    /** Set the bit at @p idx to @p value. */
    void set(std::size_t idx, bool value);

    /** Append one bit. */
    void pushBack(bool value);

    /** Remove all bits (capacity kept). */
    void clear();

    /** Reserve room for @p n bits. */
    void reserve(std::size_t n) { words.reserve(packedWords(n)); }

    /** The packed words: packedWords(size()), slack bits clear. */
    const std::uint64_t *data() const { return words.data(); }

    /**
     * Become the @p n bits held in packedWords(n) words at @p packed
     * (the layout of SimdParallelMatcher::matchPacked).
     */
    void assignWords(const std::uint64_t *packed, std::size_t n);

    /**
     * The 64 bits starting at @p pos as one word (bit pos in bit 0);
     * bits past size() read as 0.
     */
    std::uint64_t wordAt(std::size_t pos) const;

    /**
     * Append bits [@p from, @p from + @p count) of @p src: one shifted
     * word per 64 bits, whatever the two alignments. @p src must not
     * be *this.
     */
    void append(const BitVec &src, std::size_t from, std::size_t count);

    /**
     * Whether bits [@p pos, pos + @p count) equal bits
     * [@p other_pos, other_pos + count) of @p other, compared a shifted
     * word at a time. Both ranges must be in bounds.
     */
    bool rangeEquals(std::size_t pos, const BitVec &other,
                     std::size_t other_pos, std::size_t count) const;

    /** Expand into @p out (size() entries) by a sparse unpack. */
    void unpack(std::vector<bool> &out) const
    {
        unpackResultBits(words.data(), 0, numBits, out);
    }

    /** Resize to @p n bits; new bits are @p value. */
    void resize(std::size_t n, bool value = false);

    /** Become @p n bits, every one @p value (capacity kept). */
    void assign(std::size_t n, bool value = false)
    {
        clear();
        resize(n, value);
    }

    /** Number of set bits. */
    std::size_t popcount() const;

    /** Index of the first set bit, or size() if none. */
    std::size_t findFirst() const;

    /** Bitwise AND with @p other; sizes must match. */
    BitVec &operator&=(const BitVec &other);

    /** Bitwise OR with @p other; sizes must match. */
    BitVec &operator|=(const BitVec &other);

    /** Bitwise XOR with @p other; sizes must match. */
    BitVec &operator^=(const BitVec &other);

    /** Invert every bit in place. */
    void flip();

    bool operator==(const BitVec &other) const;

    /** Render as a string of '0'/'1' characters, index 0 first. */
    std::string toString() const;

  private:
    static constexpr std::size_t bitsPerWord = 64;

    static std::size_t wordIndex(std::size_t idx)
    {
        return idx / bitsPerWord;
    }
    static std::uint64_t bitMask(std::size_t idx)
    {
        return std::uint64_t(1) << (idx % bitsPerWord);
    }

    /** Zero any bits beyond numBits in the last word. */
    void trimTail();

    std::vector<std::uint64_t> words;
    std::size_t numBits = 0;
};

inline BitVec
operator&(BitVec a, const BitVec &b)
{
    a &= b;
    return a;
}

inline BitVec
operator|(BitVec a, const BitVec &b)
{
    a |= b;
    return a;
}

inline BitVec
operator^(BitVec a, const BitVec &b)
{
    a ^= b;
    return a;
}

} // namespace spm

#endif // SPM_UTIL_BITVEC_HH
