#include "service/backend.hh"

#include <algorithm>
#include <exception>

#include "util/logging.hh"

namespace spm::service
{

namespace
{

/** All-false result for a window shorter than the pattern. */
WindowResult
trivialWindow(std::size_t window_len)
{
    WindowResult wr;
    wr.bits.assign(window_len, false);
    wr.completed = true;
    return wr;
}

bool
hasWildcard(const std::vector<Symbol> &pattern)
{
    return std::find(pattern.begin(), pattern.end(), wildcardSymbol) !=
           pattern.end();
}

} // namespace

BehavioralBackend::BehavioralBackend(std::size_t num_cells)
    : cells(num_cells)
{
    spm_assert(cells > 0, "behavioral backend needs at least one cell");
}

WindowResult
BehavioralBackend::matchWindow(const std::vector<Symbol> &window,
                               const std::vector<Symbol> &pattern,
                               BeatWatchdog &dog)
{
    const std::size_t n = window.size();
    const std::size_t len = pattern.size();
    if (n == 0 || len > n)
        return trivialWindow(n);

    core::BehavioralChip chip(cells);
    if (chipPrep)
        chipPrep(chip);

    WindowResult wr;
    wr.bits.assign(n, false);

    // The feed-plan loop of runMatchProtocol, with two differences:
    // every beat is charged to the watchdog (a wedged chip is
    // cancelled mid-protocol, not discovered after an assert), and a
    // starved run returns a failed window instead of panicking --
    // from the service's seat, a chip that eats its inputs and emits
    // nothing is an operational fault, not a simulator bug.
    const core::ChipFeedPlan plan(cells, pattern, n);
    std::size_t collected = 0;
    for (Beat beat = 0; beat < plan.totalBeats() && collected < n;
         ++beat) {
        if (!dog.tick(1)) {
            wr.beats = dog.used();
            wr.note = "watchdog tripped at beat " +
                      std::to_string(dog.used()) + "/" +
                      std::to_string(dog.budget());
            return wr;
        }
        chip.feedPattern(plan.patternAt(beat));
        chip.feedControl(plan.controlAt(beat));
        chip.feedString(plan.stringAt(beat, window));
        chip.feedResult(plan.resultAt(beat));
        chip.step();
        ++wr.beats;

        const core::ResToken out = chip.resultOut();
        if (out.valid && collected < n) {
            if (collected >= len - 1 && out.value)
                wr.bits.set(collected, true);
            ++collected;
        }
    }

    if (collected < n) {
        wr.note = "starved: " + std::to_string(collected) + "/" +
                  std::to_string(n) + " results emerged";
        return wr;
    }
    wr.completed = true;
    return wr;
}

MatcherBackend::MatcherBackend(std::unique_ptr<core::Matcher> matcher_impl,
                               std::size_t max_pattern,
                               std::function<Beat()> last_beats)
    : impl(std::move(matcher_impl)), maxPattern(max_pattern),
      lastBeats(std::move(last_beats))
{
    spm_assert(impl != nullptr, "matcher backend needs a matcher");
}

WindowResult
MatcherBackend::matchWindow(const std::vector<Symbol> &window,
                            const std::vector<Symbol> &pattern,
                            BeatWatchdog &dog)
{
    const std::size_t n = window.size();
    if (n == 0 || pattern.size() > n)
        return trivialWindow(n);

    WindowResult wr;
    try {
        impl->matchInto(window, pattern, wr.bits);
    } catch (const std::exception &e) {
        wr.note = std::string("backend threw: ") + e.what();
        return wr;
    }
    if (wr.bits.size() != n) {
        wr.note = "backend returned " + std::to_string(wr.bits.size()) +
                  " bits for " + std::to_string(n) + " characters";
        wr.bits.clear();
        return wr;
    }

    // A blocking matcher cannot be stopped mid-run; charge its real
    // beat count afterwards and cancel post hoc if it blew the
    // budget -- the result is discarded, exactly as if the plug had
    // been pulled.
    wr.beats = lastBeats
        ? lastBeats()
        : static_cast<Beat>(2 * n + pattern.size() + 4);
    if (!dog.tick(wr.beats)) {
        wr.note = "watchdog tripped: " + std::to_string(wr.beats) +
                  " beats against budget " + std::to_string(dog.budget());
        wr.bits.clear();
        return wr;
    }
    wr.completed = true;
    return wr;
}

WindowResult
SoftwareBackend::matchWindow(const std::vector<Symbol> &window,
                             const std::vector<Symbol> &pattern,
                             BeatWatchdog &dog)
{
    const std::size_t n = window.size();
    if (n == 0 || pattern.size() > n)
        return trivialWindow(n);

    WindowResult wr;
    core::Matcher &m = hasWildcard(pattern)
        ? static_cast<core::Matcher &>(reference)
        : static_cast<core::Matcher &>(kmp);
    m.matchInto(window, pattern, wr.bits);
    wr.beats = static_cast<Beat>(n);
    if (!dog.tick(wr.beats)) {
        wr.note = "watchdog tripped on software floor";
        wr.bits.clear();
        return wr;
    }
    wr.completed = true;
    return wr;
}

} // namespace spm::service
