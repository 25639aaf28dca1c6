/**
 * @file
 * Ladder rungs: backends the service can stream windows through.
 *
 * A ServiceBackend matches one text window under a cooperative beat
 * budget. The service owns an ordered ladder of them -- gate-level
 * netlist first (highest fidelity), the behavioral array next, and a
 * software baseline (KMP for exact patterns, the reference definition
 * under wild cards) as the floor that cannot be wedged by an array
 * fault. The hardware/software co-design point: the host-side
 * software path is a first-class fallback, not an afterthought.
 *
 * BehavioralBackend is driven beat by beat, ticking the watchdog on
 * every step, so a fault-wedged array is cancelled mid-protocol;
 * MatcherBackend adapts any blocking core::Matcher (gate level,
 * bit-serial, cascade, multipass) by charging its beat count after
 * the fact. Both expose a chip-prep seam so the fault injector of
 * src/fault can attack the freshly built chip of each window.
 */

#ifndef SPM_SERVICE_BACKEND_HH
#define SPM_SERVICE_BACKEND_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/kmp.hh"
#include "core/behavioral.hh"
#include "core/matcher.hh"
#include "core/reference.hh"
#include "service/watchdog.hh"
#include "util/types.hh"

namespace spm::service
{

/** What one window produced. */
struct WindowResult
{
    /** r_i bits, one per window character, packed; valid when completed. */
    BitVec bits;
    /** Beats this window consumed (charged to the watchdog). */
    Beat beats = 0;
    /**
     * True when all window results emerged within budget. False means
     * the watchdog tripped or the backend failed; bits are invalid.
     */
    bool completed = false;
    /** Failure note for the journal ("watchdog", exception text). */
    std::string note;
};

/** One rung of the degradation ladder. */
class ServiceBackend
{
  public:
    virtual ~ServiceBackend() = default;

    virtual std::string name() const = 0;

    /** Whether this rung can serve the request shape at all. */
    virtual bool supports(const std::vector<Symbol> &pattern) const
    {
        (void)pattern;
        return true;
    }

    /**
     * Match @p window against @p pattern, charging beats to @p dog.
     * Implementations must stop and report completed = false once the
     * watchdog trips; they must not throw.
     */
    virtual WindowResult matchWindow(const std::vector<Symbol> &window,
                                     const std::vector<Symbol> &pattern,
                                     BeatWatchdog &dog) = 0;
};

/**
 * The behavioral array driven beat by beat under the watchdog. A
 * fresh chip is built per window (exactly as BehavioralMatcher does),
 * and the optional chip-prep hook lets fault campaigns corrupt it.
 */
class BehavioralBackend : public ServiceBackend
{
  public:
    /** @param num_cells character cells per chip; must be > 0. */
    explicit BehavioralBackend(std::size_t num_cells);

    std::string name() const override { return "systolic-behavioral"; }

    /** Pattern must fit the array (no recirculating multipass here). */
    bool supports(const std::vector<Symbol> &pattern) const override
    {
        return !pattern.empty() && pattern.size() <= cells;
    }

    WindowResult matchWindow(const std::vector<Symbol> &window,
                             const std::vector<Symbol> &pattern,
                             BeatWatchdog &dog) override;

    /** Hook run on every freshly built chip (fault injection seam). */
    void setChipPrep(std::function<void(core::BehavioralChip &)> prep)
    {
        chipPrep = std::move(prep);
    }

  private:
    std::size_t cells;
    std::function<void(core::BehavioralChip &)> chipPrep;
};

/**
 * Adapter rung over any blocking core::Matcher. The matcher runs to
 * completion, then its beat count (from @p last_beats when provided,
 * else the protocol estimate) is charged in one tick; exceeding the
 * budget post hoc still cancels the window, it just cannot stop the
 * simulation mid-run. Exceptions from the matcher are converted to a
 * failed window, never propagated.
 */
class MatcherBackend : public ServiceBackend
{
  public:
    /**
     * @param matcher_impl the wrapped matcher
     * @param max_pattern largest pattern this rung accepts (0 = any)
     * @param last_beats called after match() for the true beat count
     */
    MatcherBackend(std::unique_ptr<core::Matcher> matcher_impl,
                   std::size_t max_pattern = 0,
                   std::function<Beat()> last_beats = nullptr);

    std::string name() const override { return impl->name(); }

    bool supports(const std::vector<Symbol> &pattern) const override
    {
        if (pattern.empty())
            return false;
        if (!impl->supportsWildcards()) {
            for (Symbol p : pattern)
                if (p == wildcardSymbol)
                    return false;
        }
        return maxPattern == 0 || pattern.size() <= maxPattern;
    }

    WindowResult matchWindow(const std::vector<Symbol> &window,
                             const std::vector<Symbol> &pattern,
                             BeatWatchdog &dog) override;

  private:
    std::unique_ptr<core::Matcher> impl;
    std::size_t maxPattern;
    std::function<Beat()> lastBeats;
};

/**
 * The software floor: KMP when the pattern is exact, the reference
 * definition when it has wild cards. Host CPU work is charged at one
 * beat per window character, half the hardware protocol's rate, so
 * the floor fits comfortably in any budget a hardware rung had.
 */
class SoftwareBackend : public ServiceBackend
{
  public:
    std::string name() const override { return "software-baseline"; }

    bool supports(const std::vector<Symbol> &pattern) const override
    {
        return !pattern.empty();
    }

    WindowResult matchWindow(const std::vector<Symbol> &window,
                             const std::vector<Symbol> &pattern,
                             BeatWatchdog &dog) override;

  private:
    baselines::KmpMatcher kmp;
    core::ReferenceMatcher reference;
};

} // namespace spm::service

#endif // SPM_SERVICE_BACKEND_HH
