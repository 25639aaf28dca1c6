#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "bench.hh"
#include "util/types.hh"

namespace perfbench
{

Gen::Gen(std::uint64_t seed, std::uint64_t stream)
    : state(seed * 0x9E3779B97F4A7C15ull ^ (stream + 1) * 0xD1B54A32D192ED03ull)
{
}

std::uint64_t
Gen::next()
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::size_t
Gen::below(std::size_t n)
{
    return static_cast<std::size_t>(next() % n);
}

std::size_t
Gen::range(std::size_t lo, std::size_t hi)
{
    return lo + below(hi - lo + 1);
}

bool
Gen::chance(double p)
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
}

std::vector<Symbol>
Gen::text(std::size_t n, BitWidth bits)
{
    std::vector<Symbol> t(n);
    for (Symbol &s : t)
        s = static_cast<Symbol>(below(std::size_t{1} << bits));
    return t;
}

std::vector<Symbol>
Gen::pattern(std::size_t k, BitWidth bits, double wild)
{
    std::vector<Symbol> p = text(k, bits);
    const std::size_t keep = below(k);
    for (std::size_t i = 0; i < k; ++i)
        if (i != keep && chance(wild))
            p[i] = spm::wildcardSymbol;
    return p;
}

void
Gen::plant(std::vector<Symbol> &text, const std::vector<Symbol> &pattern,
           std::size_t count, BitWidth bits)
{
    if (pattern.size() > text.size())
        return;
    for (std::size_t c = 0; c < count; ++c) {
        const std::size_t at = below(text.size() - pattern.size() + 1);
        for (std::size_t i = 0; i < pattern.size(); ++i)
            text[at + i] = pattern[i] == spm::wildcardSymbol
                               ? static_cast<Symbol>(
                                     below(std::size_t{1} << bits))
                               : pattern[i];
    }
}

std::uint64_t
Tracer::record(const char *name, std::uint64_t request, std::uint64_t parent,
               std::uint64_t start_ns, std::uint64_t end_ns,
               std::uint64_t calls)
{
    if (!on)
        return 0;
    const std::uint64_t id = nextId++;
    spans.push_back({name, id, parent, request, start_ns, end_ns, calls});
    return id;
}

std::uint64_t
Tracer::open(const char *name, std::uint64_t request, std::uint64_t parent)
{
    const std::uint64_t t = nowNs();
    return record(name, request, parent, t, t);
}

void
Tracer::close(std::uint64_t id)
{
    if (!on || id == 0)
        return;
    // Ids are dense and assigned in push order.
    spans.at(id - 1).endNs = nowNs();
}

bool
Tracer::write(const std::string &path, const std::string &header) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "%s\n", header.c_str());
    for (const Span &s : spans)
        std::fprintf(f,
                     "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                     "\"request\":%llu,\"start_ns\":%llu,\"end_ns\":%llu,"
                     "\"calls\":%llu}\n",
                     s.name, static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     static_cast<unsigned long long>(s.startNs),
                     static_cast<unsigned long long>(s.endNs),
                     static_cast<unsigned long long>(s.calls));
    return std::fclose(f) == 0;
}

void
RepTimes::add(std::size_t item, std::uint64_t ns)
{
    if (items.size() <= item)
        items.resize(item + 1);
    items[item].push_back(ns);
}

double
RepTimes::sumOfMedians() const
{
    double sum = 0;
    for (const auto &reps : items)
        sum += median(std::vector<double>(reps.begin(), reps.end()));
    return sum;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    if (v.size() % 2)
        return v[mid];
    const double hi = v[mid];
    const double lo = *std::max_element(v.begin(), v.begin() + mid);
    return (lo + hi) / 2;
}

const std::vector<std::pair<std::string, std::string>> &
layerMetricTable()
{
    static const std::vector<std::pair<std::string, std::string>> table = {
        {"service.overhead_frac", "frac"},
        {"service.validate_ns_per_req", "ns"},
        {"service.stage.admit_p50_ns", "ns"},
        {"service.stage.queue_wait_p50_ns", "ns"},
        {"service.stage.kernel_p50_ns", "ns"},
        {"service.stage.cross_check_p50_ns", "ns"},
        {"service.stage.journal_p50_ns", "ns"},
        {"service.stage.commit_p50_ns", "ns"},
        {"service.sharded.scaling_4v1", "ratio"},
        {"service.sharded.critical_beats", "beats"},
        {"service.sharded.total_beats", "beats"},
        {"service.sharded.queue_wait_beats_mean", "beats"},
        {"service.sharded.overlap_checks", "count"},
        {"service.sharded.shard_retries", "count"},
        {"service.batch.passes_per_bundle", "count"},
        {"service.batch.width_mean", "count"},
        {"service.batch.rejected", "count"},
        {"service.stream.degradations", "count"},
        {"core.simd.kernel_chars_per_s", "chars/s"},
        {"core.simd.extract_ns_per_char", "ns"},
        {"core.simd.word_ops_per_char", "count"},
        {"core.simd.planes", "count"},
        {"core.batch.kernel_chars_per_s", "chars/s"},
        {"core.batch.fill_ratio", "frac"},
        {"core.reference.chars_per_s", "chars/s"},
        {"multipattern.sweep_chars_per_s", "chars/s"},
        {"multipattern.feed_chars_per_s", "chars/s"},
        {"multipattern.planes_per_chunk", "count"},
        {"multipattern.sweeps_per_chunk", "count"},
        {"multipattern.hits", "count"},
        {"telemetry.overhead_frac", "frac"},
        {"telemetry.exemplars_retained_frac", "frac"},
        {"telemetry.case_id_bytes_max", "bytes"},
        {"gate.host_ns_per_sim_beat", "ns"},
        {"gate.sim_beats_per_char", "beats"},
        {"gate.device_evals_per_char", "count"},
        {"trace.overhead_frac", "frac"},
    };
    return table;
}

void
LayerMetrics::set(const std::string &name, double value)
{
    for (const auto &entry : layerMetricTable())
        if (entry.first == name) {
            vals[name] = value;
            return;
        }
    throw std::logic_error("per-layer metric not in the table: " + name);
}

double
LayerMetrics::get(const std::string &name) const
{
    const auto it = vals.find(name);
    return it == vals.end() ? 0.0 : it->second;
}

void
stageMetrics(const spm::telem::Snapshot &snap, const std::string &prefix,
             LayerMetrics &out)
{
    for (const char *stage : {"admit", "queue_wait", "kernel", "cross_check",
                              "journal", "commit"}) {
        const auto *h = snap.logHistogram(prefix + stage + "_ns");
        out.set(std::string("service.stage.") + stage + "_p50_ns",
                h ? h->quantile(0.5) : 0.0);
    }
}

void
exemplarMetrics(const spm::telem::ExemplarReservoir &res, LayerMetrics &out)
{
    out.set("telemetry.exemplars_retained_frac",
            res.offered() ? static_cast<double>(res.retained()) /
                                static_cast<double>(res.offered())
                          : 0.0);
    std::size_t longest = 0;
    for (const auto &kept : {res.slowest(), res.uniform(), res.forced()})
        for (const auto &e : kept)
            longest = std::max(longest, e.caseId.size());
    out.set("telemetry.case_id_bytes_max", static_cast<double>(longest));
}

} // namespace perfbench
