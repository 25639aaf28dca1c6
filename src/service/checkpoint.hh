/**
 * @file
 * Checkpoints and the deterministic replay journal.
 *
 * The array is a sliding-window machine: the only state a resumed
 * match needs from the processed prefix is the last k-1 text
 * characters (the window overlap) and the result bits already
 * emitted. A Checkpoint captures exactly that, cut after every
 * committed chunk, so a killed request restarts from its last chunk
 * boundary instead of re-scanning the whole text -- the restartable
 * windowed processing long-stream workloads need.
 *
 * The ReplayJournal is the service's flight recorder: an ordered,
 * wall-clock-free list of serving events (admissions, chunk commits,
 * watchdog trips, degradations, checkpoint digests). Two identical
 * runs produce byte-identical journals, which is what makes the
 * journal usable for post-mortem debugging: replay the workload and
 * diff the journals to find the first divergent event.
 */

#ifndef SPM_SERVICE_CHECKPOINT_HH
#define SPM_SERVICE_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/bitvec.hh"
#include "util/types.hh"

namespace spm::service
{

/** Resumable state of a streaming match at a chunk boundary. */
struct Checkpoint
{
    /** Text characters fully processed (result bits emitted). */
    std::size_t offset = 0;
    /** The last min(k-1, offset) processed characters, in order. */
    std::vector<Symbol> tail;
    /** Result bits emitted for positions [0, offset), packed. */
    BitVec emitted;
    /** Ladder rung that was serving when the checkpoint was cut. */
    std::size_t rung = 0;
    /** Beats consumed so far (for deadline accounting on resume). */
    Beat beats = 0;

    /** FNV-1a digest over the checkpoint contents, for the journal. */
    std::uint64_t digest() const;
};

/** Ordered, deterministic event log of one service instance. */
class ReplayJournal
{
  public:
    /** @param enabled when false, record() is a no-op. */
    explicit ReplayJournal(bool enabled = true) : active(enabled) {}

    /** Append "seq=<n> <event>" to the journal. */
    void record(const std::string &event);

    /**
     * True when record() stores events. Hot paths check this before
     * building an event string (journal lines concatenate ids and
     * checkpoint digests; a disabled journal must not pay for them).
     */
    bool enabled() const { return active; }

    const std::vector<std::string> &events() const { return entries; }
    std::size_t size() const { return entries.size(); }
    void clear();

    /** The full journal, one event per line. */
    std::string dump() const;

  private:
    bool active;
    std::uint64_t seq = 0;
    std::vector<std::string> entries;
};

} // namespace spm::service

#endif // SPM_SERVICE_CHECKPOINT_HH
