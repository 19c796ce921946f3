/**
 * @file
 * Compile-service CLI: exercises the whole managed cache tier from the
 * command line (DESIGN.md section 14) and prints the service report.
 *
 * Each requested model is submitted `--repeat` times (default 3). The
 * first submission of a model compiles it (or warm-starts from the
 * artifact store when `--dir` points at a populated directory); repeats
 * are served from the in-memory model LRU. Run the tool twice with the
 * same `--dir` to see every compile turn into an artifact warm start.
 *
 * Usage:
 *   gcd2_serve [--dir DIR] [--workers N] [--repeat N]
 *              [--max-artifact-bytes N] [--verbose] [--gc]
 *              [model-name ...]          (default: the whole zoo)
 *
 * Every N is a non-negative decimal integer; anything else (a sign,
 * trailing characters, overflow) prints usage and exits 2.
 *
 *   --dir DIR       artifact directory (enables the on-disk store)
 *   --workers N     service worker threads (default 0 = hardware)
 *   --repeat N      submissions per model (default 3)
 *   --max-artifact-bytes N
 *                   artifact-store size bound; LRU-evicts after saves
 *                   (default 0 = unbounded)
 *   --verbose       print the full pipeline report (pass timings, tier
 *                   and cache counters) of every scheduled compile
 *   --gc            do not serve anything: enforce the size bound on
 *                   --dir now (delete least-recently-used artifacts
 *                   until under --max-artifact-bytes) and exit
 */
#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "models/zoo.h"
#include "service/service.h"

namespace {

using namespace gcd2;

void
printUsage(std::FILE *out, const char *prog)
{
    std::fprintf(
        out,
        "usage: %s [--dir DIR] [--workers N] [--repeat N]\n"
        "       %*s [--max-artifact-bytes N] [--verbose] [--gc]\n"
        "       %*s [model-name ...]\n"
        "\n"
        "  N is a non-negative decimal integer.\n"
        "  --dir DIR       artifact directory (enables the on-disk "
        "store)\n"
        "  --workers N     service worker threads (0 = hardware)\n"
        "  --repeat N      submissions per model (default 3)\n"
        "  --max-artifact-bytes N\n"
        "                  artifact-store size bound; least-recently-"
        "used\n"
        "                  artifacts are evicted after saves (0 = "
        "unbounded)\n"
        "  --verbose       print each scheduled compile's full pipeline "
        "report\n"
        "  --gc            only garbage-collect --dir to the size bound, "
        "then exit\n"
        "  model-name ...  zoo models to serve (default: the whole "
        "zoo)\n",
        prog, static_cast<int>(std::string(prog).size()), "",
        static_cast<int>(std::string(prog).size()), "");
}

/** @p text as a decimal integer in [0, @p max]; nullopt for an empty,
 *  signed, non-numeric, trailing-garbage, or out-of-range value. */
std::optional<uint64_t>
parseCount(const char *text, uint64_t max)
{
    if (text[0] < '0' || text[0] > '9')
        return std::nullopt; // strtoull would skip spaces, accept signs
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(text, &end, 10);
    if (errno == ERANGE || *end != '\0' || parsed > max)
        return std::nullopt;
    return parsed;
}

const char *
pathName(service::Ticket::Path path)
{
    switch (path) {
      case service::Ticket::Path::Rejected:
        return "rejected";
      case service::Ticket::Path::ModelCacheHit:
        return "model-cache";
      case service::Ticket::Path::Coalesced:
        return "coalesced";
      case service::Ticket::Path::Scheduled:
        return "scheduled";
    }
    return "?";
}

} // namespace

int
main(int argc, char **argv)
{
    service::ServiceOptions options;
    int repeat = 3;
    bool verbose = false;
    bool gcOnly = false;
    std::vector<std::string> wanted;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        // A value-taking flag in final position must not read past argv:
        // report the missing value, print usage, and exit 2 so scripted
        // callers (and the CLI regression test) see a hard failure.
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n\n", arg.c_str());
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        // Same contract for a malformed numeric value.
        auto count = [&](uint64_t max) -> uint64_t {
            const char *text = value();
            const std::optional<uint64_t> parsed = parseCount(text, max);
            if (!parsed) {
                std::fprintf(stderr,
                             "%s: invalid value '%s' (want an integer "
                             "in [0, %llu])\n\n",
                             arg.c_str(), text,
                             static_cast<unsigned long long>(max));
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
            return *parsed;
        };
        if (arg == "--help" || arg == "-h") {
            printUsage(stdout, argv[0]);
            return 0;
        }
        if (arg == "--dir")
            options.artifactDir = value();
        else if (arg == "--workers")
            options.numWorkers = static_cast<int>(count(INT_MAX));
        else if (arg == "--repeat")
            repeat = static_cast<int>(count(INT_MAX));
        else if (arg == "--max-artifact-bytes")
            options.artifactMaxBytes = count(UINT64_MAX);
        else if (arg == "--verbose")
            verbose = true;
        else if (arg == "--gc")
            gcOnly = true;
        else if (!arg.empty() && arg[0] == '-') {
            // Unknown flags must not be silently swallowed as model
            // names (the "unknown model" error they used to produce
            // pointed users at the zoo list, not at their typo).
            std::fprintf(stderr, "unknown flag '%s'\n\n", arg.c_str());
            printUsage(stderr, argv[0]);
            return 2;
        } else
            wanted.push_back(arg);
    }

    if (gcOnly) {
        if (options.artifactDir.empty()) {
            std::fprintf(stderr, "--gc needs --dir\n\n");
            printUsage(stderr, argv[0]);
            return 2;
        }
        service::ArtifactStore store(options.artifactDir,
                                     options.artifactMaxBytes);
        std::vector<common::Diag> diags;
        const size_t evicted = store.gc(&diags);
        for (const common::Diag &diag : diags)
            std::fprintf(stderr, "%s\n", diag.message.c_str());
        const auto stats = store.stats();
        std::printf("gc %s: evicted %zu artifacts (%llu bytes), bound "
                    "%llu bytes\n",
                    options.artifactDir.c_str(), evicted,
                    static_cast<unsigned long long>(stats.evictedBytes),
                    static_cast<unsigned long long>(store.maxBytes()));
        return diags.empty() ? 0 : 1;
    }

    for (const std::string &name : wanted) {
        bool known = false;
        for (const models::ModelInfo &info : models::allModels())
            known = known || name == info.name;
        if (!known) {
            std::fprintf(stderr, "unknown model '%s'\n", name.c_str());
            return 2;
        }
    }

    service::CompileService service{std::move(options)};

    std::vector<service::Ticket> tickets;
    std::vector<const char *> names;
    for (const models::ModelInfo &info : models::allModels()) {
        if (!wanted.empty() &&
            std::find(wanted.begin(), wanted.end(), info.name) ==
                wanted.end())
            continue;
        const graph::Graph g = models::buildModel(info.id);
        for (int r = 0; r < repeat; ++r) {
            tickets.push_back(service.submit(g, "cli"));
            names.push_back(info.name);
        }
    }
    service.drain();

    for (size_t t = 0; t < tickets.size(); ++t) {
        const service::Ticket &ticket = tickets[t];
        if (!ticket.accepted) {
            std::printf("serve model=%s path=%s (%s)\n", names[t],
                        pathName(ticket.path),
                        ticket.rejection.message.c_str());
            continue;
        }
        const auto model = ticket.result.get();
        std::printf("serve model=%s path=%s cycles=%llu programs=%zu\n",
                    names[t], pathName(ticket.path),
                    static_cast<unsigned long long>(model->totals.cycles),
                    model->schedules.size());
        // One full report per scheduled ticket: repeats of the same model
        // share the compile, so this prints each pipeline exactly once.
        if (verbose &&
            ticket.path == service::Ticket::Path::Scheduled)
            std::fputs(model->report.toString().c_str(), stdout);
    }

    std::fputs(service.report().toString().c_str(), stdout);
    return 0;
}
