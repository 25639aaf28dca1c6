/**
 * @file
 * bench_diff: the bench-regression gate.
 *
 * Compares a freshly generated bench JSON report (the flat key/value
 * object bench_common.hh writes) against the committed baseline and
 * fails on a silent regression. Keys are classed by name:
 *
 *   strings                exact match ("...agrees": "yes" must hold);
 *   *per_sec*, *speedup*   throughput: fresh >= min-ratio x baseline
 *                          (default 0.5 -- smoke runs are noisy, but a
 *                          disabled fast path shows up as 5-20x);
 *   *_ns                   latency: fresh <= 4x baseline;
 *   *overhead_frac*        fresh <= baseline + 0.05;
 *   other numbers          informational only -- shape keys (counts,
 *                          sweep sizes) legitimately differ between
 *                          --smoke and full runs.
 *
 * Keys present in only one file are warnings, not failures, for the
 * same reason; the summary line counts the baseline keys the fresh
 * report lacks, so a renamed or dropped key shows there. Exit status: 0 all gates hold, 1 regression, 2 usage /
 * unreadable input.
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace
{

struct Entry
{
    std::string key;
    std::string raw;    ///< value as written (string values unquoted)
    bool isString = false;
    double num = 0.0;
};

/**
 * Parse the flat one-object JSON bench_common.hh renders: each line
 * `"key": value` with value either a number or a quoted string. A
 * general JSON parser is deliberately out of scope.
 */
bool
parseFlat(const char *path, std::vector<Entry> &out)
{
    std::FILE *f = std::fopen(path, "r");
    if (!f) {
        std::fprintf(stderr, "bench_diff: cannot open %s\n", path);
        return false;
    }
    std::string body;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        body.append(buf, n);
    std::fclose(f);

    std::size_t i = 0;
    while (i < body.size()) {
        // Next quoted key.
        while (i < body.size() && body[i] != '"')
            ++i;
        if (i >= body.size())
            break;
        std::size_t end = body.find('"', ++i);
        if (end == std::string::npos)
            break;
        Entry e;
        e.key = body.substr(i, end - i);
        i = end + 1;
        while (i < body.size() &&
               (std::isspace(static_cast<unsigned char>(body[i])) ||
                body[i] == ':'))
            ++i;
        if (i >= body.size())
            break;
        if (body[i] == '"') {
            end = body.find('"', ++i);
            if (end == std::string::npos)
                break;
            e.raw = body.substr(i, end - i);
            e.isString = true;
            i = end + 1;
        } else if (body[i] == '[' || body[i] == '{') {
            // Nested value (e.g. an undetected-fault list): skip it;
            // the gate covers scalar metrics only.
            const char open = body[i];
            const char close = open == '[' ? ']' : '}';
            int depth = 0;
            for (; i < body.size(); ++i) {
                if (body[i] == open)
                    ++depth;
                else if (body[i] == close && --depth == 0) {
                    ++i;
                    break;
                }
            }
            continue;
        } else {
            std::size_t start = i;
            while (i < body.size() && body[i] != ',' &&
                   body[i] != '\n' && body[i] != '}')
                ++i;
            e.raw = body.substr(start, i - start);
            while (!e.raw.empty() &&
                   std::isspace(static_cast<unsigned char>(
                       e.raw.back())))
                e.raw.pop_back();
            char *endp = nullptr;
            e.num = std::strtod(e.raw.c_str(), &endp);
            if (endp == e.raw.c_str())
                continue; // not a scalar (true/null/...): ignore
        }
        out.push_back(std::move(e));
    }
    return true;
}

const Entry *
find(const std::vector<Entry> &entries, const std::string &key)
{
    for (const Entry &e : entries)
        if (e.key == key)
            return &e;
    return nullptr;
}

bool
keyHas(const std::string &key, const char *needle)
{
    return key.find(needle) != std::string::npos;
}

} // namespace

int
main(int argc, char **argv)
{
    double minRatio = 0.5;
    std::vector<const char *> files;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--min-ratio") == 0 && i + 1 < argc) {
            minRatio = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            std::fputs("usage: bench_diff [--min-ratio R] "
                       "<baseline.json> <fresh.json>\n",
                       stdout);
            return 0;
        } else {
            files.push_back(argv[i]);
        }
    }
    if (files.size() != 2) {
        std::fputs("usage: bench_diff [--min-ratio R] "
                   "<baseline.json> <fresh.json>\n",
                   stderr);
        return 2;
    }

    std::vector<Entry> base, fresh;
    if (!parseFlat(files[0], base) || !parseFlat(files[1], fresh))
        return 2;
    if (base.empty()) {
        std::fprintf(stderr, "bench_diff: no entries in %s\n",
                     files[0]);
        return 2;
    }

    int failures = 0;
    int checked = 0;
    int missing = 0;
    for (const Entry &b : base) {
        const Entry *f = find(fresh, b.key);
        if (!f) {
            std::printf("warn  %-44s missing from fresh report\n",
                        b.key.c_str());
            ++missing;
            continue;
        }
        if (b.isString || f->isString) {
            ++checked;
            if (b.raw != f->raw) {
                std::printf("FAIL  %-44s \"%s\" -> \"%s\"\n",
                            b.key.c_str(), b.raw.c_str(),
                            f->raw.c_str());
                ++failures;
            }
            continue;
        }
        if (keyHas(b.key, "per_sec") || keyHas(b.key, "speedup")) {
            ++checked;
            if (f->num < minRatio * b.num) {
                std::printf("FAIL  %-44s %.6g -> %.6g "
                            "(< %.2fx baseline)\n",
                            b.key.c_str(), b.num, f->num, minRatio);
                ++failures;
            }
        } else if (keyHas(b.key, "overhead_frac")) {
            ++checked;
            if (f->num > b.num + 0.05) {
                std::printf("FAIL  %-44s %.6g -> %.6g "
                            "(> baseline + 0.05)\n",
                            b.key.c_str(), b.num, f->num);
                ++failures;
            }
        } else if (keyHas(b.key, "_ns")) {
            ++checked;
            if (f->num > 4.0 * b.num) {
                std::printf("FAIL  %-44s %.6g -> %.6g "
                            "(> 4x baseline)\n",
                            b.key.c_str(), b.num, f->num);
                ++failures;
            }
        }
        // Other numeric keys are shape/config values: not gated.
    }
    for (const Entry &f : fresh) {
        if (!find(base, f.key))
            std::printf("warn  %-44s new key (not in baseline)\n",
                        f.key.c_str());
    }

    std::printf("bench_diff: %s vs %s: %d gated keys, %d missing, "
                "%d failures\n",
                files[0], files[1], checked, missing, failures);
    return failures == 0 ? 0 : 1;
}
