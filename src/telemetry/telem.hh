/**
 * @file
 * Hot-path instrumentation macros and the SPM_TELEM_OFF switch.
 *
 * Instrumentation sites in the simulators and the service go through
 * these macros rather than calling the telemetry classes directly, so
 * one compile-time switch removes every per-beat cost:
 *
 *   default build        macros expand to real spans / samples /
 *                        global-registry bumps, individually gated at
 *                        runtime (TraceBuffer enable + category mask,
 *                        telem::samplingEnabled());
 *   -DSPM_TELEM_OFF      macros expand to nothing ("((void)0)"), so
 *                        the instrumented hot loops compile exactly as
 *                        if the telemetry layer did not exist.
 *
 * Only *optional* instrumentation goes through macros. Load-bearing
 * metrics — the counters statsDump() reports and tests assert on —
 * use the registry classes directly and exist in every build; the
 * TELEM_OFF contract is "tracing compiles to nothing", not "the
 * simulator stops counting beats".
 *
 * Span macros create a scope-local RAII object; the name is built
 * with __LINE__ so two spans can share a scope.
 */

#ifndef SPM_TELEMETRY_TELEM_HH
#define SPM_TELEMETRY_TELEM_HH

#include "telemetry/metrics.hh"
#include "telemetry/span.hh"

#define SPM_TELEM_CONCAT2(a, b) a##b
#define SPM_TELEM_CONCAT(a, b) SPM_TELEM_CONCAT2(a, b)

#ifndef SPM_TELEM_OFF

/**
 * Time the enclosing scope as a Chrome 'X' span in the global trace
 * buffer. @p name must be a string literal; @p category a telem::cat
 * bit; @p beat and @p arg are stamped on the event.
 */
#define SPM_TSPAN(name, category, beat, arg)                          \
    ::spm::telem::ScopedSpan SPM_TELEM_CONCAT(spmTelemSpan_,          \
                                              __LINE__)(             \
        ::spm::telem::TraceBuffer::global(), name, category,          \
        beat, arg)

/** Same, but named so the scope can setBeat()/setArg() before exit. */
#define SPM_TSPAN_NAMED(var, name, category, beat, arg)               \
    ::spm::telem::ScopedSpan var(                                     \
        ::spm::telem::TraceBuffer::global(), name, category, beat, arg)

/** Drop a Chrome 'I' instant into the global trace buffer. */
#define SPM_TINSTANT(name, category, beat, arg)                       \
    ::spm::telem::instant(::spm::telem::TraceBuffer::global(), name,  \
                          category, beat, arg)

/** Sample @p value into @p hist if sampling is runtime-enabled. */
#define SPM_THIST(hist, value)                                        \
    do {                                                              \
        if (::spm::telem::samplingEnabled())                          \
            (hist).sample(value);                                     \
    } while (0)

/** Bump a named counter in the global registry (cached lookup). */
#define SPM_TCOUNT_GLOBAL(name, by)                                   \
    do {                                                              \
        static ::spm::telem::Counter &SPM_TELEM_CONCAT(               \
            spmTelemCtr_, __LINE__) =                                 \
            ::spm::telem::Registry::global().counter(name);           \
        SPM_TELEM_CONCAT(spmTelemCtr_, __LINE__).add(by);             \
    } while (0)

/** Sample into a named global-registry histogram (cached lookup). */
#define SPM_THIST_GLOBAL(name, value)                                 \
    do {                                                              \
        if (::spm::telem::samplingEnabled()) {                        \
            static ::spm::telem::Histogram &SPM_TELEM_CONCAT(         \
                spmTelemHist_, __LINE__) =                            \
                ::spm::telem::Registry::global().histogram(name);     \
            SPM_TELEM_CONCAT(spmTelemHist_, __LINE__).sample(value);  \
        }                                                             \
    } while (0)

#else // SPM_TELEM_OFF: every site compiles to nothing.

namespace spm::telem
{
/** Stand-in for a named span so setBeat()/setArg() still compile. */
struct NullSpan
{
    void setBeat(Beat) {}
    void setArg(std::uint64_t) {}
};
} // namespace spm::telem

#define SPM_TSPAN(name, category, beat, arg) ((void)0)
#define SPM_TSPAN_NAMED(var, name, category, beat, arg)               \
    [[maybe_unused]] ::spm::telem::NullSpan var
#define SPM_TINSTANT(name, category, beat, arg) ((void)0)
#define SPM_THIST(hist, value) ((void)0)
#define SPM_TCOUNT_GLOBAL(name, by) ((void)0)
#define SPM_THIST_GLOBAL(name, value) ((void)0)

#endif // SPM_TELEM_OFF

#endif // SPM_TELEMETRY_TELEM_HH
